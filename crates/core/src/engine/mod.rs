//! The branch-and-bound engine behind kDC (Algorithms 1 and 2).
//!
//! # Representation
//!
//! The engine owns a *universe* of `n` vertices (the preprocessed, relabelled
//! graph) and a permutation array `vs` partitioned into three regions:
//!
//! ```text
//!        0 … s_end       s_end … cand_end      cand_end … n
//!      [   S (partial) |   candidates        |   removed   ]
//! ```
//!
//! Moving a vertex between regions is a swap plus a boundary bump, and every
//! move is recorded on a LIFO trail so backtracking restores state exactly.
//!
//! # Incrementally maintained quantities
//!
//! * `deg[v]`  — degree of `v` among *alive* vertices (S ∪ candidates);
//!   frozen while `v` is removed (correct on restore because undo is LIFO);
//! * `non_nbr_s[v]` — `|N̄_S(v)|`, the number of `v`'s non-neighbours inside
//!   `S` (the paper's central per-vertex quantity);
//! * `missing_in_s` — `|Ē(S)|`, missing edges inside `S`;
//! * `edges_alive` — edges among alive vertices, giving the O(1) leaf test
//!   `C(alive, 2) − edges_alive ≤ k`.
//!
//! # Adjacency
//!
//! [`Engine::reset`] picks one of two representations per universe:
//!
//! * **dense** — a [`BitMatrix`] beside the lists, and the word kernel:
//!   the per-node hot path runs as masked `u64`-word sweeps over matrix
//!   rows. Chosen iff the word kernel is configured on and the matrix fits
//!   [`DENSE_WORDS_LIMIT`] (see [`dense_fits`]);
//! * **lists** — the sorted CSR rows alone, and the scalar kernel's
//!   per-vertex probes.
//!
//! Both walk the identical search tree; only the cost per node differs.
//!
//! Reduction rules live in [`reductions`], upper bounds in [`bounds`].

mod bounds;
mod reductions;
#[cfg(test)]
mod stress_tests;

use crate::config::{BranchPolicy, CancelFlag, SolverConfig};
use crate::solver::SolveBudget;
use crate::stats::{SearchStats, Status};
use kdc_graph::bitset::{
    self, for_each_bit_and, for_each_bit_and_not, popcount_and, BitMatrix, BitSet,
};
use kdc_graph::degeneracy::{self, BucketPeel};
use kdc_graph::scratch::Marker;
use std::time::Instant;

/// Budget (in `u64` words) for the dense bit-matrix: universes with
/// `n · ⌈n/64⌉` beyond this keep only the sorted lists and run the scalar
/// kernel (the matrix would cost more memory than the sweeps save).
/// 2^23 words = 64 MiB, i.e. `n ≤ 23,168`.
const DENSE_WORDS_LIMIT: usize = 1 << 23;

/// Whether an `n`-vertex universe gets the dense representation under the
/// word kernel: a nonempty matrix of at most [`DENSE_WORDS_LIMIT`] words.
fn dense_fits(n: usize) -> bool {
    n > 0
        && n.checked_mul(bitset::words_for(n))
            .is_some_and(|total| total <= DENSE_WORDS_LIMIT)
}

/// Trail entries; undone in reverse order.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A candidate was moved into S.
    AddS(u32),
    /// A candidate was removed from the graph.
    RemoveCand(u32),
}

/// Outcome of applying the reduction pipeline to the current instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reduced {
    /// The instance cannot contain a solution better than `lb`.
    Pruned,
    /// The alive graph is itself a k-defective clique (leaf rule).
    Leaf,
    /// Branching is required.
    Open,
}

/// The search engine over a fixed universe graph.
///
/// An engine is created empty by [`Engine::hollow`] and primed for each
/// universe by [`Engine::reset`], the one way to load a universe: the
/// solver's restarts and the decomposition arena's ego instances both
/// re-prime one long-lived engine. The universe adjacency is stored as a
/// flat CSR (`adj_off`/`adj_dat`, laid out like [`kdc_graph::Graph::csr`]),
/// and every buffer is cleared and refilled in place, retaining its capacity
/// across instances, so re-priming for a universe no larger than an earlier
/// one allocates nothing.
pub(crate) struct Engine {
    pub(crate) k: usize,
    n: usize,
    /// Static sorted adjacency over the universe, CSR layout:
    /// `adj_dat[adj_off[v] .. adj_off[v + 1]]` is the sorted row of `v`.
    adj_off: Vec<usize>,
    adj_dat: Vec<u32>,
    /// Dense adjacency, present iff the universe runs the word kernel (see
    /// [`dense_fits`]); `None` selects the list representation.
    matrix: Option<BitMatrix>,
    /// Parked matrix buffer while the current universe runs on the lists,
    /// so a later dense universe can reuse the allocation.
    matrix_spare: Option<BitMatrix>,
    /// Alive-candidate membership mask (kept in sync with the partition; used
    /// by bit-parallel intersections).
    cand_mask: BitSet,
    /// Alive-vertex membership mask (`S ∪ candidates`), the word-kernel
    /// companion of `cand_mask`: the non-neighbour sweeps of `add_to_s` and
    /// the neighbour sweeps of `remove_cand` intersect adjacency rows
    /// against it instead of probing `pos` per vertex.
    alive_mask: BitSet,

    vs: Vec<u32>,
    pos: Vec<usize>,
    s_end: usize,
    cand_end: usize,

    deg: Vec<u32>,
    non_nbr_s: Vec<u32>,
    missing_in_s: usize,
    edges_alive: usize,

    trail: Vec<Op>,

    /// Best solution found by this engine (universe ids; may be empty).
    best: Vec<u32>,
    /// External lower bound (e.g. the heuristic solution size); the engine
    /// only reports solutions strictly larger than this floor.
    lb_floor: usize,
    /// §6 enumeration mode: keep the `pool_r` largest *maximal* k-defective
    /// cliques instead of a single optimum (0 = disabled).
    pool_r: usize,
    /// The enumeration pool, sorted by size descending.
    pool: Vec<Vec<u32>>,

    pub(crate) config: SolverConfig,
    pub(crate) stats: SearchStats,
    /// Whether per-bound wall-clock attribution is on, sampled from
    /// [`kdc_obs::enabled`] at construction so the per-node decision is a
    /// plain field load rather than an atomic.
    pub(crate) obs_timing: bool,

    /// Bucket-queue degeneracy peel of the universe graph: its ranks give
    /// UB1's colouring order (descending rank = reverse degeneracy order),
    /// and a reverse scan of its order yields candidates already sorted.
    root_peel: BucketPeel,
    /// Scratch: flat per-colour-class bitsets (`num_classes × words`) for the
    /// matrix colouring path.
    scratch_classes: Vec<u64>,
    /// Scratch: secondary pair buffer for the two-pass counting sort.
    scratch_pairs_tmp: Vec<(u32, u32)>,

    mark: Marker,
    /// Scratch: candidates sorted by `non_nbr_s` (UB3/RR3) or by colour (UB1).
    scratch_cands: Vec<u32>,
    /// Scratch: per-vertex colour during UB1.
    scratch_color: Vec<u32>,
    /// Scratch: counting-sort buckets.
    scratch_buckets: Vec<u32>,
    /// Scratch: per-colour "used" stamps during greedy colouring.
    scratch_used: Vec<u32>,
    scratch_serial: u32,
    /// Scratch: (colour, |N̄_S|) pairs for UB1.
    scratch_pairs: Vec<(u32, u32)>,

    /// Called whenever the incumbent improves (new best size passed in);
    /// returning `true` aborts the run with [`Engine::rebuild_requested`]
    /// set, signalling the caller to re-extract a tightened universe and
    /// restart. Installed by the solver's CTCP re-tightening loop.
    improve_hook: Option<Box<dyn FnMut(usize) -> bool + Send>>,
    /// Whether the last abort was a voluntary stop-for-rebuild (see
    /// `improve_hook`), as opposed to a limit or cancellation.
    rebuild_requested: bool,

    depth: usize,
    aborted: bool,
    abort_status: Status,
    deadline: Option<Instant>,
    node_limit: Option<u64>,
}

impl Engine {
    /// An engine with zero-capacity buffers and no universe. Must be primed
    /// with [`Engine::reset`] before use; callers create it once (per solve,
    /// per worker) and let the first reset grow it.
    pub(crate) fn hollow(k: usize, config: SolverConfig) -> Self {
        Engine {
            k,
            n: 0,
            adj_off: Vec::new(),
            adj_dat: Vec::new(),
            matrix: None,
            matrix_spare: None,
            cand_mask: BitSet::new(0),
            alive_mask: BitSet::new(0),
            vs: Vec::new(),
            pos: Vec::new(),
            s_end: 0,
            cand_end: 0,
            deg: Vec::new(),
            non_nbr_s: Vec::new(),
            missing_in_s: 0,
            edges_alive: 0,
            trail: Vec::new(),
            best: Vec::new(),
            lb_floor: 0,
            pool_r: 0,
            pool: Vec::new(),
            stats: SearchStats::default(),
            obs_timing: kdc_obs::enabled(),
            root_peel: BucketPeel::default(),
            scratch_classes: Vec::new(),
            scratch_pairs_tmp: Vec::new(),
            mark: Marker::new(0),
            scratch_cands: Vec::new(),
            scratch_color: Vec::new(),
            scratch_buckets: Vec::new(),
            scratch_used: Vec::new(),
            scratch_serial: 0,
            scratch_pairs: Vec::new(),
            improve_hook: None,
            rebuild_requested: false,
            depth: 0,
            aborted: false,
            abort_status: Status::Optimal,
            deadline: None,
            node_limit: None,
            config,
        }
    }

    /// Re-primes the engine for a new universe given as a CSR adjacency
    /// (`data[offsets[v]..offsets[v + 1]]` = sorted row of `v`), clearing
    /// every piece of per-run state in place. In steady state (capacities
    /// already grown by earlier universes of at least this size) this
    /// performs no heap allocation — the contract the decomposition arena's
    /// `arena_reuses` counter and the `alloc_guard` test assert.
    // kdc-lint: hot-path
    pub(crate) fn reset(&mut self, offsets: &[usize], data: &[u32], lb_floor: usize) {
        let n = offsets.len() - 1;
        debug_assert!((0..n).all(|v| {
            data[offsets[v]..offsets[v + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        self.n = n;
        self.adj_off.clear();
        self.adj_off.extend_from_slice(offsets);
        self.adj_dat.clear();
        self.adj_dat.extend_from_slice(data);

        if self.config.word_kernel && dense_fits(n) {
            let mut mx = match self.matrix.take().or_else(|| self.matrix_spare.take()) {
                Some(mut mx) => {
                    mx.reset(n, n);
                    mx
                }
                None => BitMatrix::new(n, n),
            };
            for u in 0..n {
                for i in offsets[u]..offsets[u + 1] {
                    mx.set(u, data[i] as usize);
                }
            }
            self.matrix = Some(mx);
        } else if let Some(mx) = self.matrix.take() {
            self.matrix_spare = Some(mx);
        }

        self.cand_mask.reset_full(n);
        self.alive_mask.reset_full(n);
        self.vs.clear();
        self.vs.extend(0..n as u32);
        self.pos.clear();
        self.pos.extend(0..n);
        self.s_end = 0;
        self.cand_end = n;
        self.deg.clear();
        self.deg
            .extend((0..n).map(|v| (offsets[v + 1] - offsets[v]) as u32));
        self.non_nbr_s.clear();
        self.non_nbr_s.resize(n, 0);
        self.missing_in_s = 0;
        self.edges_alive = data.len() / 2;
        self.trail.clear();
        self.best.clear();
        self.lb_floor = lb_floor;
        self.pool.clear();
        self.stats = SearchStats::default();
        degeneracy::peel_bucket(&self.adj_off, &self.adj_dat, &mut self.root_peel);
        self.mark.ensure_capacity(n);
        self.scratch_cands.clear();
        self.scratch_color.clear();
        self.scratch_color.resize(n, 0);
        self.scratch_buckets.clear();
        self.scratch_used.clear();
        self.scratch_pairs.clear();
        self.scratch_pairs_tmp.clear();
        self.scratch_classes.clear();
        self.depth = 0;
        self.aborted = false;
        self.rebuild_requested = false;
        self.abort_status = Status::Optimal;
    }

    /// The sorted universe row of `v`.
    #[inline]
    fn nbrs(&self, v: u32) -> &[u32] {
        &self.adj_dat[self.adj_off[v as usize]..self.adj_off[v as usize + 1]]
    }

    /// `(start, end)` indices of `v`'s row in `adj_dat` (for loops that must
    /// mutate other fields while walking the row).
    #[inline]
    fn row_range(&self, v: u32) -> (usize, usize) {
        (self.adj_off[v as usize], self.adj_off[v as usize + 1])
    }

    /// Why the search aborted (meaningful only when [`Engine::run`] returned
    /// `false`).
    pub(crate) fn abort_status(&self) -> Status {
        self.abort_status
    }

    /// Moves the accumulated statistics out of the engine.
    pub(crate) fn take_stats(&mut self) -> SearchStats {
        std::mem::take(&mut self.stats)
    }

    /// Runs the search from the root instance `(G, ∅)`, armed with the
    /// budget's deadline and unspent nodes, and charges the nodes it visits
    /// to the budget. Returns `true` if the search ran to completion (no
    /// limit hit).
    pub(crate) fn run(&mut self, budget: &SolveBudget) -> bool {
        (self.deadline, self.node_limit) = budget.arm();
        self.search();
        budget.charge(self.stats.nodes);
        !self.aborted
    }

    /// The best solution found that beats the floor, in universe ids.
    pub(crate) fn best(&self) -> &[u32] {
        &self.best
    }

    /// Current pruning lower bound: best known solution size, or in
    /// enumeration mode one less than the pool's smallest member (so ties
    /// with the r-th best are not cut off).
    #[inline]
    pub(crate) fn lb(&self) -> usize {
        if self.pool_r > 0 {
            if self.pool.len() >= self.pool_r {
                self.pool.last().map_or(0, |c| c.len()).saturating_sub(1)
            } else {
                0
            }
        } else {
            self.lb_floor.max(self.best.len())
        }
    }

    /// Enables §6 enumeration mode: collect the `r` largest maximal
    /// k-defective cliques. Must be called before [`Engine::run`].
    pub(crate) fn enable_pool(&mut self, r: usize) {
        assert!(r > 0, "pool size must be positive");
        self.pool_r = r;
    }

    /// Takes the enumeration pool (sorted by size descending).
    pub(crate) fn take_pool(&mut self) -> Vec<Vec<u32>> {
        std::mem::take(&mut self.pool)
    }

    /// Whether the engine runs in §6 enumeration mode.
    #[inline]
    pub(crate) fn pool_mode(&self) -> bool {
        self.pool_r > 0
    }

    // ---- region predicates -------------------------------------------------

    #[inline]
    fn is_cand(&self, v: u32) -> bool {
        let p = self.pos[v as usize];
        p >= self.s_end && p < self.cand_end
    }

    #[inline]
    fn alive(&self, v: u32) -> bool {
        self.pos[v as usize] < self.cand_end
    }

    /// Number of alive vertices `|V(g)|`.
    #[inline]
    pub(crate) fn alive_count(&self) -> usize {
        self.cand_end
    }

    /// Number of candidates `|V(g) \ S|`.
    #[inline]
    fn cand_count(&self) -> usize {
        self.cand_end - self.s_end
    }

    /// Adjacency test over the universe (binary search probes the smaller
    /// of the two rows on the list path).
    #[inline]
    pub(crate) fn has_edge(&self, u: u32, v: u32) -> bool {
        match &self.matrix {
            Some(mx) => mx.get(u as usize, v as usize),
            None => {
                let (a, b) = if self.nbrs(u).len() <= self.nbrs(v).len() {
                    (u, v)
                } else {
                    (v, u)
                };
                self.nbrs(a).binary_search(&b).is_ok()
            }
        }
    }

    // ---- alive-set sweeps --------------------------------------------------

    /// Behind `add_to_s`/its undo: adds `delta` (±1 as a wrapping `u32`) to
    /// `non_nbr_s[w]` for every alive non-neighbour `w ≠ v` of `v` — a word
    /// sweep of the matrix row on the dense representation, a mark-and-scan
    /// of the alive prefix on the lists.
    // kdc-lint: hot-path
    fn bump_alive_non_neighbors(&mut self, v: u32, delta: u32) {
        if let Some(mx) = &self.matrix {
            // Disjoint field borrows: the row aliases only the matrix.
            let non_nbr_s = &mut self.non_nbr_s;
            for_each_bit_and_not(self.alive_mask.words(), mx.row(v as usize), |w| {
                non_nbr_s[w] = non_nbr_s[w].wrapping_add(delta);
            });
            // v is alive and not its own neighbour, so the sweep touched it.
            let own = &mut self.non_nbr_s[v as usize];
            *own = own.wrapping_sub(delta);
            return;
        }
        self.mark.reset();
        let (start, end) = self.row_range(v);
        for i in start..end {
            self.mark.mark(self.adj_dat[i] as usize);
        }
        for i in 0..self.cand_end {
            let w = self.vs[i] as usize;
            if w != v as usize && !self.mark.is_marked(w) {
                self.non_nbr_s[w] = self.non_nbr_s[w].wrapping_add(delta);
            }
        }
    }

    /// Behind `remove_cand`/its undo: adds `delta` (±1 as a wrapping `u32`)
    /// to `deg[w]` for every alive neighbour `w` of `v`. The dense sweep
    /// reads `alive_mask`, which must not contain vertices the list
    /// predicate (`pos[w] < cand_end`) excludes — both call sites hold that.
    // kdc-lint: hot-path
    fn bump_alive_neighbors(&mut self, v: u32, delta: u32) {
        if let Some(mx) = &self.matrix {
            let deg = &mut self.deg;
            for_each_bit_and(self.alive_mask.words(), mx.row(v as usize), |w| {
                deg[w] = deg[w].wrapping_add(delta);
            });
            return;
        }
        let (start, end) = self.row_range(v);
        for i in start..end {
            let w = self.adj_dat[i] as usize;
            if self.pos[w] < self.cand_end {
                self.deg[w] = self.deg[w].wrapping_add(delta);
            }
        }
    }

    // ---- trailed operations ------------------------------------------------

    #[inline]
    fn swap_vs(&mut self, a: usize, b: usize) {
        if a != b {
            self.vs.swap(a, b);
            self.pos[self.vs[a] as usize] = a;
            self.pos[self.vs[b] as usize] = b;
        }
    }

    /// Moves candidate `v` into S (left branch / RR2).
    fn add_to_s(&mut self, v: u32) {
        debug_assert!(self.is_cand(v));
        let p = self.pos[v as usize];
        self.swap_vs(p, self.s_end);
        self.s_end += 1;
        self.missing_in_s += self.non_nbr_s[v as usize] as usize;
        // Every alive non-neighbour of v gains one S-non-neighbour.
        self.bump_alive_non_neighbors(v, 1);
        self.cand_mask.remove(v as usize);
        self.trail.push(Op::AddS(v));
    }

    /// Removes candidate `v` from the graph (right branch / RR1/RR3–RR5).
    /// Degrees of remaining alive vertices are decremented incrementally on
    /// both adjacency representations — never re-derived from scratch.
    fn remove_cand(&mut self, v: u32) {
        debug_assert!(self.is_cand(v));
        let p = self.pos[v as usize];
        self.swap_vs(p, self.cand_end - 1);
        self.cand_end -= 1;
        self.edges_alive -= self.deg[v as usize] as usize;
        // `alive_mask` still contains v here, but v ∉ row(v), so the dense
        // sweep set equals the list predicate's.
        self.bump_alive_neighbors(v, 1u32.wrapping_neg());
        self.cand_mask.remove(v as usize);
        self.alive_mask.remove(v as usize);
        self.trail.push(Op::RemoveCand(v));
    }

    /// Undoes trail operations until the trail shrinks to `checkpoint`.
    fn undo_to(&mut self, checkpoint: usize) {
        while self.trail.len() > checkpoint {
            match self.trail.pop().expect("trail underflow") {
                Op::AddS(v) => {
                    debug_assert_eq!(self.pos[v as usize], self.s_end - 1);
                    self.bump_alive_non_neighbors(v, 1u32.wrapping_neg());
                    self.missing_in_s -= self.non_nbr_s[v as usize] as usize;
                    self.s_end -= 1;
                    self.cand_mask.insert(v as usize);
                }
                Op::RemoveCand(v) => {
                    debug_assert_eq!(self.pos[v as usize], self.cand_end);
                    // v is not yet back in `alive_mask`, matching the list
                    // predicate (pos[v] == cand_end).
                    self.bump_alive_neighbors(v, 1);
                    self.edges_alive += self.deg[v as usize] as usize;
                    self.cand_end += 1;
                    self.cand_mask.insert(v as usize);
                    self.alive_mask.insert(v as usize);
                }
            }
        }
    }

    // ---- search ------------------------------------------------------------

    fn search(&mut self) {
        // Per-node limit checks: a node costs Ω(alive) work, so the clock
        // read is noise, and coarser checks overshoot small limits on large
        // instances where single nodes are milliseconds. A refused node is
        // not counted: a run visits at most `node_limit` nodes.
        let stop = if self
            .config
            .cancel
            .as_ref()
            .is_some_and(CancelFlag::is_cancelled)
        {
            Some(Status::Cancelled)
        } else if self
            .node_limit
            .is_some_and(|limit| self.stats.nodes >= limit)
        {
            Some(Status::NodeLimitReached)
        } else if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            Some(Status::TimedOut)
        } else {
            None
        };
        if let Some(status) = stop {
            self.aborted = true;
            self.abort_status = status;
            return;
        }
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.depth);
        #[cfg(debug_assertions)]
        self.assert_invariants();

        let cp = self.trail.len();
        match self.reduce() {
            Reduced::Pruned => {
                self.undo_to(cp);
                return;
            }
            Reduced::Leaf => {
                self.stats.leaves += 1;
                self.record_alive_solution();
                self.undo_to(cp);
                return;
            }
            Reduced::Open => {}
        }

        // Anytime improvement: S itself is always a valid k-defective clique.
        if self.pool_r == 0 && self.s_end > self.lb() {
            self.best.clear();
            self.best.extend_from_slice(&self.vs[..self.s_end]);
            self.notify_improved();
            if self.aborted {
                self.undo_to(cp);
                return;
            }
        }

        if self.any_bound_enabled() {
            let lb = self.lb();
            let (ub, ub1_was_min, kdclub_was_min) = self.upper_bound(lb);
            if ub <= self.lb() {
                self.stats.bound_prunes += 1;
                if ub1_was_min {
                    self.stats.ub1_prunes += 1;
                }
                if kdclub_was_min {
                    self.stats.kdclub_prunes += 1;
                }
                self.undo_to(cp);
                return;
            }
        }

        let b = self.pick_branch_vertex();
        let cp2 = self.trail.len();

        // Left branch: include b (BR guarantees S ∪ b is feasible because
        // RR1 ran to fixpoint first).
        self.add_to_s(b);
        self.depth += 1;
        self.search();
        self.depth -= 1;
        self.undo_to(cp2);

        // Right branch: exclude b — unless the left branch aborted the run.
        if !self.aborted {
            self.remove_cand(b);
            self.depth += 1;
            self.search();
            self.depth -= 1;
        }
        self.undo_to(cp);
    }

    /// Records the whole alive set as the incumbent if it improves on `lb`.
    /// In enumeration mode, inserts it into the pool when globally maximal.
    fn record_alive_solution(&mut self) {
        if self.pool_r > 0 {
            if self.cand_end > self.lb() && self.alive_is_globally_maximal() {
                let sol = self.vs[..self.cand_end].to_vec();
                let idx = self.pool.partition_point(|c| c.len() >= sol.len());
                self.pool.insert(idx, sol);
                self.pool.truncate(self.pool_r);
            }
        } else if self.cand_end > self.lb() {
            self.best.clear();
            self.best.extend_from_slice(&self.vs[..self.cand_end]);
            self.notify_improved();
        }
    }

    /// Runs the improvement hook (if any) after `best` grew; a `true`
    /// return requests a stop-for-rebuild abort.
    fn notify_improved(&mut self) {
        let new_size = self.best.len();
        if let Some(hook) = self.improve_hook.as_mut() {
            if hook(new_size) {
                self.aborted = true;
                self.rebuild_requested = true;
            }
        }
    }

    /// Installs the incumbent-improvement hook (see [`Engine::reset`] docs;
    /// survives resets so the solver's re-tightening loop installs it once).
    pub(crate) fn set_improve_hook(&mut self, hook: Box<dyn FnMut(usize) -> bool + Send>) {
        self.improve_hook = Some(hook);
    }

    /// Whether the last run aborted voluntarily to let the caller rebuild a
    /// tightened universe (as opposed to hitting a limit).
    pub(crate) fn rebuild_requested(&self) -> bool {
        self.rebuild_requested
    }

    /// Whether the alive set is maximal with respect to the *whole universe*
    /// graph (needed in enumeration mode because a branching-removed vertex
    /// may still extend it; such supersets are found in sibling subtrees, so
    /// non-maximal leaves are simply skipped).
    fn alive_is_globally_maximal(&self) -> bool {
        let alive = self.cand_end;
        let missing = alive * alive.saturating_sub(1) / 2 - self.edges_alive;
        debug_assert!(missing <= self.k);
        for u in 0..self.n as u32 {
            if self.alive(u) {
                continue;
            }
            // |N(u) ∩ alive| as a masked popcount on the dense path; the
            // removed vertex's `deg` entry is frozen at removal time, so the
            // live count cannot be read off the degree array.
            let nbrs_in = match &self.matrix {
                Some(mx) => popcount_and(mx.row(u as usize), self.alive_mask.words()),
                None => self.nbrs(u).iter().filter(|&&w| self.alive(w)).count(),
            };
            if missing + (alive - nbrs_in) <= self.k {
                return false;
            }
        }
        true
    }

    /// Whether any upper bound is configured.
    fn any_bound_enabled(&self) -> bool {
        let c = &self.config;
        c.enable_ub1 || c.enable_ub3 || c.use_eq2_bound || c.enable_kdclub
    }

    /// Branching rule BR (§3.1.1): prefer a candidate with at least one
    /// non-neighbour in S; tie-break per the configured policy.
    fn pick_branch_vertex(&self) -> u32 {
        debug_assert!(self.cand_count() > 0, "branching on an empty candidate set");
        let cands = &self.vs[self.s_end..self.cand_end];
        match self.config.branch_policy {
            BranchPolicy::MaxNonNeighbors => {
                let mut best = cands[0];
                let mut best_nn = self.non_nbr_s[best as usize];
                for &v in &cands[1..] {
                    let nn = self.non_nbr_s[v as usize];
                    if nn > best_nn {
                        best = v;
                        best_nn = nn;
                    }
                }
                if best_nn > 0 {
                    best
                } else {
                    // All candidates fully adjacent to S: arbitrary choice;
                    // min alive degree works well in practice.
                    *cands
                        .iter()
                        .min_by_key(|&&v| self.deg[v as usize])
                        .expect("nonempty")
                }
            }
            BranchPolicy::MaxDegreeAny => *cands
                .iter()
                .max_by_key(|&&v| self.deg[v as usize])
                .expect("nonempty"),
        }
    }

    // ---- probing and test accessors -------------------------------------------

    /// Forces a candidate into S (instance construction for [`crate::probe`]).
    pub(crate) fn force_into_s(&mut self, v: u32) {
        self.add_to_s(v);
    }

    /// Test hook: force a candidate into S.
    #[cfg(test)]
    pub(crate) fn add_to_s_for_test(&mut self, v: u32) {
        self.add_to_s(v);
    }

    /// Test hook: whether the universe has the dense representation, whose
    /// per-node hot path runs as masked word sweeps over matrix rows.
    #[cfg(test)]
    pub(crate) fn word_kernel_active(&self) -> bool {
        self.matrix.is_some()
    }

    /// Test hook: `|Ē(S)|`.
    #[cfg(test)]
    pub(crate) fn missing_in_s_for_test(&self) -> usize {
        self.missing_in_s
    }

    /// Test hook: `|S|`.
    #[cfg(test)]
    pub(crate) fn s_len_for_test(&self) -> usize {
        self.s_end
    }

    /// Test hook: some candidate that can feasibly join S, if any.
    #[cfg(test)]
    pub(crate) fn first_feasible_candidate_for_test(&self) -> Option<u32> {
        self.vs[self.s_end..self.cand_end]
            .iter()
            .copied()
            .find(|&v| self.missing_in_s + self.non_nbr_s[v as usize] as usize <= self.k)
    }

    // ---- debug invariants ----------------------------------------------------

    /// Recomputes all incremental quantities from scratch and compares.
    /// Debug builds only; quadratic, so sampled by node count.
    #[cfg(debug_assertions)]
    fn assert_invariants(&self) {
        if self.stats.nodes % 64 != 1 || self.n > 512 {
            return;
        }
        // Membership goes through the `pos`-based predicates rather than
        // materialised sets: the checker runs inside the alloc-guard test's
        // counting window, so it must not heap-allocate itself.
        let mut edges = 0usize;
        for i in 0..self.cand_end {
            let v = self.vs[i];
            let d = self.nbrs(v).iter().filter(|&&w| self.alive(w)).count();
            assert_eq!(d, self.deg[v as usize] as usize, "deg[{v}] stale");
            edges += d;
            let nn = self.vs[..self.s_end]
                .iter()
                .filter(|&&u| u != v && !self.nbrs(v).contains(&u))
                .count();
            assert_eq!(
                nn, self.non_nbr_s[v as usize] as usize,
                "non_nbr_s[{v}] stale"
            );
        }
        assert_eq!(edges / 2, self.edges_alive, "edges_alive stale");
        let mut missing = 0usize;
        for i in 0..self.s_end {
            let u = self.vs[i];
            for &w in &self.vs[i + 1..self.s_end] {
                if !self.nbrs(u).contains(&w) {
                    missing += 1;
                }
            }
        }
        assert_eq!(missing, self.missing_in_s, "missing_in_s stale");
        assert!(self.missing_in_s <= self.k, "S must stay k-defective");
        for v in 0..self.n as u32 {
            assert_eq!(self.cand_mask.contains(v as usize), self.is_cand(v));
            assert_eq!(self.alive_mask.contains(v as usize), self.alive(v));
        }
    }
}

/// Test shorthand: a fresh engine primed with `g` as its universe.
#[cfg(test)]
pub(crate) fn primed(
    g: &kdc_graph::Graph,
    k: usize,
    config: SolverConfig,
    lb_floor: usize,
) -> Engine {
    let mut engine = Engine::hollow(k, config);
    let (offsets, data) = g.csr();
    engine.reset(offsets, data, lb_floor);
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_from_edges(n: usize, edges: &[(u32, u32)], k: usize) -> Engine {
        primed(
            &kdc_graph::Graph::from_edges(n, edges),
            k,
            SolverConfig::kdc_t(),
            0,
        )
    }

    #[test]
    fn trail_roundtrip_restores_state() {
        let mut e = engine_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 1);
        let deg0 = e.deg.clone();
        let cp = e.trail.len();
        e.add_to_s(0);
        assert_eq!(e.s_end, 1);
        assert_eq!(e.non_nbr_s[2], 1, "2 is not adjacent to 0");
        assert_eq!(e.non_nbr_s[1], 0, "1 is adjacent to 0");
        e.remove_cand(2);
        assert_eq!(e.cand_end, 4);
        assert_eq!(e.deg[1], 1, "1 lost neighbour 2");
        e.add_to_s(1);
        assert_eq!(e.missing_in_s, 0);
        e.undo_to(cp);
        assert_eq!(e.s_end, 0);
        assert_eq!(e.cand_end, 5);
        assert_eq!(e.deg, deg0);
        assert_eq!(e.non_nbr_s, vec![0; 5]);
        assert_eq!(e.missing_in_s, 0);
        assert_eq!(e.edges_alive, 5);
    }

    #[test]
    fn missing_in_s_accumulates() {
        let mut e = engine_from_edges(4, &[(0, 1), (2, 3)], 3);
        e.add_to_s(0);
        e.add_to_s(2); // not adjacent to 0 → 1 missing edge
        assert_eq!(e.missing_in_s, 1);
        e.add_to_s(3); // adjacent to 2, not to 0 → 2 missing
        assert_eq!(e.missing_in_s, 2);
        let lens = e.trail.len();
        e.undo_to(lens - 1);
        assert_eq!(e.missing_in_s, 1);
    }

    #[test]
    fn kdc_t_solves_cycle5() {
        // C5 with k=1 → optimum 3.
        let mut e = engine_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 1);
        assert!(e.run(&SolveBudget::default()));
        assert_eq!(e.best().len(), 3);
    }

    #[test]
    fn kdc_t_solves_figure2() {
        let g = kdc_graph::named::figure2();
        // k = 0,1: the K5; k = 2: {v1..v6}; k = 3,4: still 6 (any 7-set
        // crossing the two groups misses ≥ 6 edges, and {v1..v7} misses 5);
        // k = 5: {v1..v7}.
        for (k, expected) in [(0usize, 5usize), (1, 5), (2, 6), (3, 6), (4, 6), (5, 7)] {
            let mut e = primed(&g, k, SolverConfig::kdc_t(), 0);
            assert!(e.run(&SolveBudget::default()));
            assert_eq!(e.best().len(), expected, "k = {k}");
            assert!(g.is_k_defective_clique(e.best(), k));
        }
    }

    #[test]
    fn node_limit_stops_before_the_right_branch() {
        // An aborted left branch must not enter (and count) the right one.
        let g = kdc_graph::gen::gnp(45, 0.35, &mut kdc_graph::gen::seeded_rng(93));
        let mut unlimited = primed(&g, 2, SolverConfig::kdc_t(), 0);
        assert!(unlimited.run(&SolveBudget::default()));
        for limit in [1u64, 5, 20] {
            assert!(unlimited.stats.nodes > limit, "graph too easy");
            let mut e = primed(&g, 2, SolverConfig::kdc_t(), 0);
            let budget = SolveBudget::new(&SolverConfig::kdc_t().with_node_limit(limit));
            assert!(!e.run(&budget));
            assert_eq!(e.abort_status(), Status::NodeLimitReached);
            assert_eq!(e.stats.nodes, limit);
            // The budget is spent: a further run stops before its root.
            let (offsets, data) = g.csr();
            e.reset(offsets, data, 0);
            assert!(!e.run(&budget));
            assert_eq!(e.stats.nodes, 0);
        }
    }

    #[test]
    fn lb_floor_suppresses_smaller_solutions() {
        let mut e = engine_from_edges(3, &[(0, 1), (1, 2), (0, 2)], 0);
        e.lb_floor = 3; // the triangle itself does not beat the floor
        assert!(e.run(&SolveBudget::default()));
        assert!(e.best().is_empty());
    }

    #[test]
    fn matrix_and_list_paths_agree() {
        let g = kdc_graph::gen::gnp(30, 0.35, &mut kdc_graph::gen::seeded_rng(17));
        for k in [0usize, 1, 3] {
            let cfg_list = SolverConfig::kdc_t().with_scalar_kernel();
            let mut e1 = primed(&g, k, cfg_list, 0);
            assert!(
                !e1.word_kernel_active(),
                "the scalar kernel runs on the lists"
            );
            let mut e2 = primed(&g, k, SolverConfig::kdc_t(), 0);
            assert!(e1.run(&SolveBudget::default()) && e2.run(&SolveBudget::default()));
            assert_eq!(e1.best().len(), e2.best().len(), "k = {k}");
            // Identical configurations must also explore identical trees.
            assert_eq!(e1.stats.nodes, e2.stats.nodes);
        }
    }

    #[test]
    fn dense_budget_covers_exactly_23168_vertices() {
        // 23,168 · ⌈23,168/64⌉ = 8,386,816 words ≤ 2^23 < 23,169 · 363.
        assert!(dense_fits(1));
        assert!(dense_fits(23_168));
        assert!(!dense_fits(23_169));
        assert!(!dense_fits(0), "an empty universe needs no matrix");
    }

    #[test]
    fn reprimed_engine_matches_a_fresh_one() {
        // The solver's restarts and the decomposition arena re-prime one
        // engine; growing, shrinking and crossing between the dense and the
        // list representation must leave no trace of earlier universes in
        // the answer or the tree. The 23,169-vertex universe is one past the
        // dense budget, so it runs on the lists without building a matrix;
        // edgeless, it closes at the root node.
        let mut rng = kdc_graph::gen::seeded_rng(2718);
        let cfg = SolverConfig::kdc();
        let mut reused = Engine::hollow(2, cfg.clone());
        for (n, p) in [
            (40usize, 0.4),
            (12, 0.4),
            (23_169, 0.0),
            (30, 0.4),
            (48, 0.4),
        ] {
            let g = kdc_graph::gen::gnp(n, p, &mut rng);
            let (offsets, data) = g.csr();
            reused.reset(offsets, data, 3);
            assert_eq!(reused.word_kernel_active(), dense_fits(n), "n = {n}");
            let mut fresh = primed(&g, 2, cfg.clone(), 3);
            assert_eq!(
                reused.run(&SolveBudget::default()),
                fresh.run(&SolveBudget::default()),
                "n = {n}"
            );
            assert_eq!(reused.best(), fresh.best(), "n = {n}");
            assert_eq!(reused.stats.nodes, fresh.stats.nodes, "n = {n}");
            assert_eq!(reused.stats.leaves, fresh.stats.leaves, "n = {n}");
        }
    }
}
