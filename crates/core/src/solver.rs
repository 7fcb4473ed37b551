//! The top-level kDC solver (Algorithm 2), one pipeline per solve:
//!
//! 1. heuristically compute a large initial k-defective clique (§3.3);
//! 2. reduce the input graph with RR5 (core) and RR6 (truss) using the
//!    initial solution size as the lower bound, via the incremental CTCP
//!    reducer ([`kdc_graph::ctcp`]) instead of a from-scratch fixpoint;
//! 3. branch-and-bound on the reduced, relabelled universe — and whenever
//!    the incumbent improves mid-search, re-tighten the reducer; if that
//!    removes anything, restart on the (strictly smaller) universe.
//!
//! Lines 1–2 are one prelude, run by [`Solver::solve`], by the ego
//! decomposition ([`crate::decompose::solve_decomposed`], which replaces
//! only line 3) and by [`preprocess_report`]. Each universe is extracted
//! from the reducer as a CSR [`Graph`], and one engine per solve is
//! re-primed from it via `Engine::reset` on every restart, the same priming
//! path the decomposition arena uses.
//!
//! The prelude also starts the solve's one [`SolveBudget`]: the time limit
//! is a deadline counted from the solve's start, and the node limit is a
//! pool that every engine run (each restart, each ego instance) draws from,
//! so both limits hold for the solve as a whole.
//!
//! Long-running services install a resident reducer + best-known witness
//! via [`SolverConfig::shared_ctcp`] / [`SolverConfig::seed_solution`], so
//! warm solves resume tightening where the previous solve stopped.

use crate::config::{CancelFlag, EventHook, InitialHeuristic, SolveEvent, SolverConfig};
use crate::engine::Engine;
use crate::heuristic;
use crate::stats::{SearchStats, Solution, Status};
use kdc_graph::ctcp::{Ctcp, Removals};
use kdc_graph::degeneracy::{self, Peeling};
use kdc_graph::graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Exact maximum k-defective clique solver.
///
/// ```
/// use kdc::{Solver, SolverConfig};
/// use kdc_graph::Graph;
///
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
/// let sol = Solver::new(&g, 1, SolverConfig::kdc()).solve();
/// assert_eq!(sol.size(), 3);
/// assert!(sol.is_optimal());
/// ```
pub struct Solver<'g> {
    graph: &'g Graph,
    k: usize,
    config: SolverConfig,
}

impl<'g> Solver<'g> {
    /// Creates a solver for the maximum `k`-defective clique of `graph`.
    pub fn new(graph: &'g Graph, k: usize, config: SolverConfig) -> Self {
        Solver { graph, k, config }
    }

    /// Runs the solve and returns the best solution found together with its
    /// optimality status and search statistics.
    pub fn solve(self) -> Solution {
        Pipeline::prelude(self.graph, self.k, self.config).branch_and_bound()
    }
}

/// The limits of one solve, shared by all of its engine runs: the time
/// limit as a deadline fixed when the solve starts, the node limit as a
/// pool each run draws from, and the cancel flag. The [`Default`] budget is
/// unlimited.
#[derive(Debug, Default)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    node_limit: Option<u64>,
    spent: AtomicU64,
    cancel: Option<CancelFlag>,
}

impl SolveBudget {
    /// Starts the clock on `config`'s time and node limits.
    pub fn new(config: &SolverConfig) -> Self {
        SolveBudget {
            deadline: config
                .time_limit
                .and_then(|d| Instant::now().checked_add(d)),
            node_limit: config.node_limit,
            spent: AtomicU64::new(0),
            cancel: config.cancel.clone(),
        }
    }

    /// Why no further engine run may start, if any: a raised cancel flag,
    /// a passed deadline or a spent node pool.
    pub(crate) fn exhausted(&self) -> Option<Status> {
        if self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled) {
            Some(Status::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(Status::TimedOut)
        } else {
            (self.arm().1 == Some(0)).then_some(Status::NodeLimitReached)
        }
    }

    /// The deadline and the nodes not yet spent, to arm one engine run.
    pub(crate) fn arm(&self) -> (Option<Instant>, Option<u64>) {
        (
            self.deadline,
            self.node_limit.map(|l| l.saturating_sub(self.spent())),
        )
    }

    /// Books the nodes one engine run visited.
    pub(crate) fn charge(&self, nodes: u64) {
        self.spent.fetch_add(nodes, Ordering::Relaxed);
    }

    /// The nodes booked so far.
    pub(crate) fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }
}

/// One solve once its prelude (lines 1–2 of Algorithm 2) has run: the
/// incumbent, the reducer and the budget that line 3 continues from,
/// sequentially ([`Pipeline::branch_and_bound`]) or per ego instance.
pub(crate) struct Pipeline<'g> {
    pub(crate) graph: &'g Graph,
    pub(crate) k: usize,
    pub(crate) config: SolverConfig,
    pub(crate) budget: SolveBudget,
    /// The input peeling the heuristic ran on; `None` only when no
    /// heuristic ran and none was shared.
    pub(crate) peeling: Option<Arc<Peeling>>,
    /// The incumbent, in input ids.
    pub(crate) best: Vec<VertexId>,
    /// Universe extractions, plus every engine run folded in by line 3.
    pub(crate) stats: SearchStats,
    ctcp: Arc<Mutex<Ctcp>>,
    /// Removals (vertices, edges) this solve made. A resident reducer also
    /// serves concurrent solves, so its own counters cannot be attributed
    /// to this one; shared with the engine's improvement hook.
    removed: Arc<(AtomicU64, AtomicU64)>,
    started: Instant,
    searching: Instant,
}

impl<'g> Pipeline<'g> {
    /// Lines 1–2 of Algorithm 2: the shared or a fresh peeling, the
    /// configured heuristic (possibly beaten by a validated seed), then the
    /// resident or a private reducer tightened to that bound.
    pub(crate) fn prelude(graph: &'g Graph, k: usize, config: SolverConfig) -> Self {
        let started = Instant::now();
        let budget = SolveBudget::new(&config);
        let peel_span = config.trace.as_ref().map(|t| t.span("peel"));
        let peeling = match &config.shared_peeling {
            Some(shared) => Some(Arc::clone(shared)),
            None if config.heuristic == InitialHeuristic::None => None,
            None => Some(Arc::new(degeneracy::peel(graph))),
        };
        drop(peel_span);
        debug_assert!(peeling.as_ref().is_none_or(|p| p.order.len() == graph.n()));
        let heuristic_span = config.trace.as_ref().map(|t| t.span("heuristic"));
        let mut best = match (peeling.as_deref(), config.heuristic) {
            (None, _) | (_, InitialHeuristic::None) => Vec::new(),
            (Some(p), InitialHeuristic::Degen) => heuristic::degen_with(graph, k, p),
            (Some(p), InitialHeuristic::DegenOpt) => heuristic::degen_opt_with(graph, k, p),
            (Some(p), InitialHeuristic::DegenOptLocalSearch) => {
                heuristic::degen_opt_ls_with(graph, k, p)
            }
        };
        drop(heuristic_span);
        debug_assert!(graph.is_k_defective_clique(&best, k));
        if let Some(seed) = &config.seed_solution {
            if seed.len() > best.len() && valid_seed(graph, seed, k) {
                best = seed.clone();
            }
        }
        let lb0 = best.len();
        if lb0 > 0 {
            if let Some(hook) = &config.on_event {
                hook.emit(SolveEvent::Incumbent { size: lb0 });
            }
        }
        let mut pipeline = Pipeline {
            ctcp: resident_ctcp(graph, k, &config, lb0, peeling.as_deref()),
            removed: Arc::default(),
            graph,
            k,
            config,
            budget,
            peeling,
            best,
            stats: SearchStats {
                initial_solution_size: lb0,
                ..SearchStats::default()
            },
            started,
            searching: started,
        };
        {
            let _tighten_span = pipeline.config.trace.as_ref().map(|t| t.span("tighten"));
            let rem = pipeline.ctcp.lock().expect("poisoned").tighten(lb0);
            book_removals(&pipeline.removed, pipeline.config.on_event.as_ref(), &rem);
        }
        pipeline.searching = Instant::now();
        pipeline
    }

    /// The next universe to search with its new → old id map, announced by
    /// a `Restart` event; `None` once the incumbent meets a caller-proven
    /// upper bound, which makes it optimal without a search.
    pub(crate) fn next_universe(&mut self) -> Option<(Graph, Vec<VertexId>)> {
        if self.config.known_ub.is_some_and(|ub| self.best.len() >= ub) {
            return None;
        }
        // Atomically tighten, verify and extract. A resident reducer may
        // already have been tightened past our bound by a concurrent solve,
        // so its universe may miss solutions larger than *our* incumbent:
        // then a private reducer serves the rest of this solve.
        let lb = self.best.len();
        let mut c = self.ctcp.lock().expect("poisoned");
        let mut rem = c.tighten(lb);
        if c.lb() > lb {
            drop(c);
            let mut private = fresh_ctcp(self.graph, self.k, &self.config, self.peeling.as_deref());
            rem = private.tighten(lb);
            self.ctcp = Arc::new(Mutex::new(private));
            c = self.ctcp.lock().expect("poisoned");
        }
        let (universe, keep) = c.extract_universe();
        drop(c);
        book_removals(&self.removed, self.config.on_event.as_ref(), &rem);
        self.stats.universe_rebuilds += 1;
        if self.stats.universe_rebuilds == 1 {
            self.stats.preprocessed_n = keep.len();
            self.stats.preprocessed_m = universe.m();
        }
        if let Some(hook) = &self.config.on_event {
            hook.emit(SolveEvent::Restart {
                universe: keep.len(),
            });
        }
        Some((universe, keep))
    }

    /// Line 3, sequentially: branch and bound over the reduced universe.
    /// Whenever the incumbent improves, the engine re-tightens the reducer
    /// through the improvement hook; if that shrinks the universe, the run
    /// aborts and restarts on the smaller instance (each restart is paid
    /// for by at least one removal, so there are at most n + m of them).
    /// Every restart re-primes the same engine.
    pub(crate) fn branch_and_bound(mut self) -> Solution {
        let mut engine = Engine::hollow(self.k, self.config.clone());
        let status = loop {
            let Some((universe, keep)) = self.next_universe() else {
                break Status::Optimal;
            };
            let (offsets, data) = universe.csr();
            engine.reset(offsets, data, self.best.len());
            // Installed after every `next_universe`: its fallback may have
            // swapped `ctcp` for a private reducer, which the hook must tighten.
            engine.set_improve_hook(self.improve_hook());
            let branch_span = self.config.trace.as_ref().map(|t| t.span("branch"));
            let completed = engine.run(&self.budget);
            drop(branch_span);
            if engine.best().len() > self.best.len() {
                self.best = engine.best().iter().map(|&v| keep[v as usize]).collect();
            }
            self.stats.absorb(&engine.take_stats());
            if completed {
                break Status::Optimal;
            }
            if !engine.rebuild_requested() {
                break engine.abort_status();
            }
        };
        self.finish(status)
    }

    /// The engine's improvement hook: report the incumbent, re-tighten the
    /// reducer to it, and ask for a rebuild when that removed anything.
    fn improve_hook(&self) -> Box<dyn FnMut(usize) -> bool + Send> {
        let ctcp = Arc::clone(&self.ctcp);
        let removed = Arc::clone(&self.removed);
        let events = self.config.on_event.clone();
        let trace = self.config.trace.clone();
        let cap = self.config.known_ub;
        Box::new(move |new_lb| {
            if let Some(events) = &events {
                events.emit(SolveEvent::Incumbent { size: new_lb });
            }
            let _tighten_span = trace.as_ref().map(|t| t.span("tighten"));
            let rem = ctcp.lock().expect("poisoned").tighten(new_lb);
            book_removals(&removed, events.as_ref(), &rem);
            // Reaching the known upper bound aborts the engine via the
            // rebuild path; `next_universe` then declares optimality.
            !rem.is_empty() || cap.is_some_and(|ub| new_lb >= ub)
        })
    }

    /// The solve's answer: the incumbent as a sorted witness, the solve's
    /// statistics (the prelude's included) and `status`.
    pub(crate) fn finish(self, status: Status) -> Solution {
        let mut vertices = self.best;
        vertices.sort_unstable();
        debug_assert!(self.graph.is_k_defective_clique(&vertices, self.k));
        let stats = SearchStats {
            ctcp_vertex_removals: self.removed.0.load(Ordering::Relaxed),
            ctcp_edge_removals: self.removed.1.load(Ordering::Relaxed),
            preprocess_time: self.searching - self.started,
            search_time: self.searching.elapsed(),
            ..self.stats
        };
        Solution {
            vertices,
            status,
            stats,
        }
    }
}

/// Books reducer removals to this solve and reports non-empty ones as a
/// `Retighten` event.
fn book_removals(removed: &(AtomicU64, AtomicU64), events: Option<&EventHook>, rem: &Removals) {
    removed
        .0
        .fetch_add(rem.vertices.len() as u64, Ordering::Relaxed);
    removed.1.fetch_add(rem.edges, Ordering::Relaxed);
    if rem.is_empty() {
        return;
    }
    if let Some(events) = events {
        events.emit(SolveEvent::Retighten {
            vertices: rem.vertices.len() as u64,
            edges: rem.edges,
        });
    }
}

/// Whether `seed` is a usable known solution for `(g, k)`: in-range,
/// duplicate-free and k-defective. Seeds travel across service boundaries,
/// so they are fully validated rather than trusted. Range and duplicates
/// are checked *before* the clique test, which would panic on either.
fn valid_seed(g: &Graph, seed: &[VertexId], k: usize) -> bool {
    if seed.iter().any(|&v| v as usize >= g.n()) {
        return false;
    }
    let mut sorted = seed.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == seed.len() && g.is_k_defective_clique(seed, k)
}

/// The CTCP reducer for this solve: the installed resident one when it
/// matches this graph, `k`, rule configuration and can be resumed at `lb`
/// (its recorded bound must not exceed what this solve justifies); a fresh
/// one otherwise, built from `peeling` when the solve has one.
fn resident_ctcp(
    g: &Graph,
    k: usize,
    config: &SolverConfig,
    lb: usize,
    peeling: Option<&Peeling>,
) -> Arc<Mutex<Ctcp>> {
    if let Some(shared) = &config.shared_ctcp {
        let usable = {
            let c = shared.lock().expect("poisoned");
            c.n() == g.n()
                && c.k() == k
                && c.rules() == (config.enable_rr5, config.enable_rr6)
                && c.lb() <= lb
        };
        if usable {
            return Arc::clone(shared);
        }
    }
    Arc::new(Mutex::new(fresh_ctcp(g, k, config, peeling)))
}

/// A new reducer for `(g, k)` under `config`'s RR5/RR6 switches. It takes
/// its core order from the solve's `peeling` when there is one, so the
/// graph is not peeled a second time.
fn fresh_ctcp(g: &Graph, k: usize, config: &SolverConfig, peeling: Option<&Peeling>) -> Ctcp {
    let (core, truss) = (config.enable_rr5, config.enable_rr6);
    match peeling {
        Some(p) => Ctcp::with_peeling(g, k, core, truss, p),
        None => Ctcp::with_rules(g, k, core, truss),
    }
}

/// Convenience wrapper: solve with the default kDC configuration.
pub fn max_defective_clique(graph: &Graph, k: usize) -> Solution {
    Solver::new(graph, k, SolverConfig::kdc()).solve()
}

/// Result of running only Lines 1–2 of Algorithm 2 (heuristic +
/// preprocessing), as compared in Table 4 of the paper.
#[derive(Clone, Debug)]
pub struct PreprocessReport {
    /// The initial solution `C0`.
    pub initial: Vec<VertexId>,
    /// Vertices surviving preprocessing (`n0`).
    pub n0: usize,
    /// Edges surviving preprocessing (`m0`).
    pub m0: usize,
}

/// Runs the heuristic and the RR5/RR6 preprocessing without searching.
pub fn preprocess_report(graph: &Graph, k: usize, config: &SolverConfig) -> PreprocessReport {
    let pipeline = Pipeline::prelude(graph, k, config.clone());
    let (n0, m0) = {
        let ctcp = pipeline.ctcp.lock().expect("poisoned");
        (ctcp.alive_n(), ctcp.alive_m())
    };
    PreprocessReport {
        initial: pipeline.best,
        n0,
        m0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdc_graph::{gen, named};

    #[test]
    fn solves_figure2_for_all_k() {
        let g = named::figure2();
        for (k, expected) in [(0usize, 5usize), (1, 5), (2, 6), (3, 6), (4, 6), (5, 7)] {
            let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
            assert_eq!(sol.size(), expected, "k = {k}");
            assert!(sol.is_optimal());
            assert!(g.is_k_defective_clique(&sol.vertices, k));
        }
    }

    #[test]
    fn all_presets_agree_on_random_graphs() {
        let mut rng = gen::seeded_rng(2024);
        type Preset = (&'static str, fn() -> SolverConfig);
        let presets: Vec<Preset> = vec![
            ("kdc", SolverConfig::kdc),
            ("kdc_t", SolverConfig::kdc_t),
            ("no_ub1", SolverConfig::without_ub1),
            ("no_rr34", SolverConfig::without_rr3_rr4),
            ("no_ub1_rr34", SolverConfig::without_ub1_rr3_rr4),
            ("degen", SolverConfig::degen),
            ("kdbb", SolverConfig::kdbb_like),
            ("madec", SolverConfig::madec_like),
        ];
        for trial in 0..8 {
            let g = gen::gnp(22, 0.4, &mut rng);
            for k in [0usize, 1, 3, 5] {
                let reference = Solver::new(&g, k, SolverConfig::kdc_t()).solve();
                for (name, cfg) in &presets {
                    let sol = Solver::new(&g, k, cfg()).solve();
                    assert_eq!(
                        sol.size(),
                        reference.size(),
                        "preset {name} disagrees (trial {trial}, k {k})"
                    );
                    assert!(g.is_k_defective_clique(&sol.vertices, k));
                    assert!(sol.is_optimal());
                }
            }
        }
    }

    #[test]
    fn planted_clique_is_found_exactly() {
        let mut rng = gen::seeded_rng(5);
        let (g, planted) = gen::planted_defective_clique(150, 14, 3, 0.04, &mut rng);
        let sol = max_defective_clique(&g, 3);
        assert!(sol.size() >= planted.len(), "planted clique missed");
        assert!(g.is_k_defective_clique(&sol.vertices, 3));
    }

    #[test]
    fn k_zero_equals_maximum_clique_on_figure2() {
        let g = named::figure2();
        let sol = max_defective_clique(&g, 0);
        assert_eq!(sol.size(), 5);
        assert_eq!(sol.vertices, vec![7, 8, 9, 10, 11]);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let sol = max_defective_clique(&Graph::empty(0), 3);
        assert_eq!(sol.size(), 0);
        assert!(sol.is_optimal());

        let sol = max_defective_clique(&Graph::empty(1), 0);
        assert_eq!(sol.size(), 1);

        // Isolated vertices: any s with s(s−1)/2 ≤ k fit together.
        let sol = max_defective_clique(&Graph::empty(10), 3);
        assert_eq!(sol.size(), 3);

        let sol = max_defective_clique(&gen::complete(8), 5);
        assert_eq!(sol.size(), 8);
    }

    #[test]
    fn node_limit_reports_nonoptimal() {
        let mut rng = gen::seeded_rng(11);
        let g = gen::gnp(60, 0.5, &mut rng);
        let cfg = SolverConfig::kdc_t().with_node_limit(10);
        let sol = Solver::new(&g, 3, cfg).solve();
        assert_eq!(sol.status, Status::NodeLimitReached);
        // Best-effort solution is still valid.
        assert!(g.is_k_defective_clique(&sol.vertices, 3));
    }

    #[test]
    fn node_limit_is_one_budget_across_restarts() {
        // No heuristic: the incumbent rises from zero and every improvement
        // that re-tightens the reducer restarts the engine on a smaller
        // universe, which must not re-arm the node limit.
        let mut rng = gen::seeded_rng(93);
        for trial in 0..4 {
            let g = gen::gnp(45, 0.35, &mut rng);
            for k in [0usize, 2] {
                let mut cfg = SolverConfig::kdc();
                cfg.heuristic = InitialHeuristic::None;
                let unlimited = Solver::new(&g, k, cfg.clone()).solve();
                assert!(unlimited.is_optimal());
                for limit in [1u64, 5, 20, 50] {
                    let sol = Solver::new(&g, k, cfg.clone().with_node_limit(limit)).solve();
                    let at = format!("trial {trial} k {k} limit {limit}");
                    assert!(sol.stats.nodes <= limit, "{at}: {} nodes", sol.stats.nodes);
                    if unlimited.stats.nodes > limit {
                        assert_eq!(sol.status, Status::NodeLimitReached, "{at}");
                    } else {
                        assert!(sol.is_optimal(), "{at}");
                        assert_eq!(sol.vertices, unlimited.vertices, "{at}");
                        assert_eq!(sol.stats.nodes, unlimited.stats.nodes, "{at}");
                    }
                    assert!(g.is_k_defective_clique(&sol.vertices, k));
                }
            }
        }
    }

    #[test]
    fn shared_peeling_matches_fresh_peeling() {
        use kdc_graph::degeneracy;
        use std::sync::Arc;
        let mut rng = gen::seeded_rng(14);
        for _ in 0..4 {
            let g = gen::gnp(40, 0.3, &mut rng);
            let peeling = Arc::new(degeneracy::peel(&g));
            for k in [0usize, 2] {
                let fresh = Solver::new(&g, k, SolverConfig::kdc()).solve();
                let shared_cfg = SolverConfig::kdc().with_shared_peeling(peeling.clone());
                let shared = Solver::new(&g, k, shared_cfg.clone()).solve();
                // The heuristics are deterministic in the ordering, so the
                // results are identical, not merely equal-sized.
                assert_eq!(fresh.vertices, shared.vertices, "k = {k}");
                let decomposed = crate::decompose::solve_decomposed(&g, k, shared_cfg, 2);
                assert_eq!(fresh.size(), decomposed.size(), "k = {k}");
            }
        }
    }

    #[test]
    fn cancel_flag_aborts_with_best_effort_solution() {
        use crate::config::CancelFlag;
        let mut rng = gen::seeded_rng(13);
        let g = gen::gnp(80, 0.5, &mut rng);
        // Pre-raised flag: the engine must abort at its very first node and
        // still hand back the (valid) heuristic solution.
        let flag = CancelFlag::new();
        flag.cancel();
        let sol = Solver::new(&g, 3, SolverConfig::kdc().with_cancel(flag)).solve();
        assert_eq!(sol.status, Status::Cancelled);
        assert!(g.is_k_defective_clique(&sol.vertices, 3));

        // An un-raised flag must not disturb the solve.
        let flag = CancelFlag::new();
        let sol = Solver::new(&g, 3, SolverConfig::kdc().with_cancel(flag.clone())).solve();
        assert!(sol.is_optimal());
        assert!(!flag.is_cancelled());
    }

    #[test]
    fn time_limit_reports_timeout() {
        let mut rng = gen::seeded_rng(12);
        // A hard dense instance with a tiny limit.
        let g = gen::gnp(120, 0.6, &mut rng);
        let cfg = SolverConfig::kdc_t().with_time_limit(std::time::Duration::from_millis(1));
        let sol = Solver::new(&g, 10, cfg).solve();
        assert!(matches!(sol.status, Status::TimedOut | Status::Optimal));
    }

    #[test]
    fn preprocessing_shrinks_planted_instances() {
        let mut rng = gen::seeded_rng(77);
        let (g, _) = gen::planted_defective_clique(400, 16, 2, 0.02, &mut rng);
        let sol = Solver::new(&g, 2, SolverConfig::kdc()).solve();
        assert!(
            sol.stats.preprocessed_n < g.n() / 2,
            "preprocessing too weak: {} of {}",
            sol.stats.preprocessed_n,
            g.n()
        );
        assert!(sol.stats.initial_solution_size >= 10);
    }

    #[test]
    fn stats_are_populated() {
        let g = named::figure2();
        let sol = Solver::new(&g, 2, SolverConfig::kdc()).solve();
        assert!(sol.stats.nodes >= 1);
        assert!(sol.stats.initial_solution_size >= 5);
        assert!(
            sol.stats.universe_rebuilds >= 1,
            "the root universe is always extracted once"
        );
        // Per-bound telemetry: some bound is evaluated during the search,
        // and prune counts can never exceed invocation counts.
        let costs = &sol.stats.bound_costs;
        assert!(costs.iter().map(|bc| bc.invocations).sum::<u64>() > 0);
        assert!(costs.iter().all(|bc| bc.prunes <= bc.invocations));
        assert_eq!(
            costs.iter().map(|bc| bc.prunes).sum::<u64>(),
            sol.stats.bound_prunes,
            "stage attribution must cover exactly the bound prunes"
        );
    }

    #[test]
    fn ctcp_counters_track_preprocessing() {
        let mut rng = gen::seeded_rng(78);
        let (g, _) = gen::planted_defective_clique(400, 16, 2, 0.02, &mut rng);
        let sol = Solver::new(&g, 2, SolverConfig::kdc()).solve();
        assert!(sol.is_optimal());
        assert!(sol.stats.ctcp_vertex_removals > 0);
        assert!(sol.stats.ctcp_edge_removals > 0);
        // preprocessed_n reflects the first extraction, before any
        // mid-search re-tighten.
        assert!(sol.stats.preprocessed_n <= g.n() - sol.stats.ctcp_vertex_removals as usize + 1);
    }

    #[test]
    fn seed_solution_raises_the_initial_bound() {
        let mut rng = gen::seeded_rng(91);
        let g = gen::gnp(40, 0.4, &mut rng);
        let first = Solver::new(&g, 2, SolverConfig::kdc()).solve();
        assert!(first.is_optimal());
        let seeded_cfg = SolverConfig::kdc().with_seed_solution(first.vertices.clone());
        let second = Solver::new(&g, 2, seeded_cfg).solve();
        assert!(second.is_optimal());
        assert_eq!(second.size(), first.size());
        assert_eq!(
            second.stats.initial_solution_size,
            first.size(),
            "the seed must become the initial bound"
        );

        // A hostile seed (duplicates / out-of-range / infeasible) is ignored.
        for bad in [
            vec![0u32, 0, 1],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 999],
        ] {
            let cfg = SolverConfig::kdc().with_seed_solution(bad);
            let sol = Solver::new(&g, 2, cfg).solve();
            assert_eq!(sol.size(), first.size());
            assert!(sol.is_optimal());
        }
    }

    #[test]
    fn known_ub_cap_stops_early_with_identical_witness() {
        let mut rng = gen::seeded_rng(94);
        let g = gen::gnp(45, 0.4, &mut rng);
        for k in [0usize, 2] {
            let cold = Solver::new(&g, k, SolverConfig::kdc()).solve();
            assert!(cold.is_optimal());
            let opt = cold.size();

            // Cap at the true optimum: the search stops the moment the
            // incumbent gets there, and the witness is byte-identical to
            // the uncapped run (the cap never alters pruning).
            let capped = Solver::new(&g, k, SolverConfig::kdc().with_known_ub(opt)).solve();
            assert!(capped.is_optimal());
            assert_eq!(capped.vertices, cold.vertices, "k = {k}");
            assert!(capped.stats.nodes <= cold.stats.nodes);

            // Seeded *at* the cap: the whole search is skipped — no
            // universe is ever extracted, no node is ever visited.
            let skip_cfg = SolverConfig::kdc()
                .with_seed_solution(cold.vertices.clone())
                .with_known_ub(opt);
            let skipped = Solver::new(&g, k, skip_cfg).solve();
            assert!(skipped.is_optimal());
            assert_eq!(skipped.vertices, cold.vertices);
            assert_eq!(skipped.stats.nodes, 0, "capped seed skips the search");
            assert_eq!(skipped.stats.universe_rebuilds, 0);

            // A cap above the optimum never fires and changes nothing.
            let loose = Solver::new(&g, k, SolverConfig::kdc().with_known_ub(opt + 1)).solve();
            assert!(loose.is_optimal());
            assert_eq!(loose.vertices, cold.vertices);
        }
    }

    #[test]
    fn shared_ctcp_resumes_across_solves() {
        use kdc_graph::ctcp::Ctcp;
        use std::sync::{Arc, Mutex};
        let mut rng = gen::seeded_rng(92);
        let (g, _) = gen::planted_defective_clique(300, 14, 2, 0.03, &mut rng);
        let k = 2;

        let cold = Solver::new(&g, k, SolverConfig::kdc()).solve();
        assert!(cold.is_optimal());

        // Warm pair: one resident reducer plus the cold result as seed.
        let resident = Arc::new(Mutex::new(Ctcp::new(&g, k)));
        let warm_cfg = SolverConfig::kdc()
            .with_shared_ctcp(resident.clone())
            .with_seed_solution(cold.vertices.clone());
        let warm1 = Solver::new(&g, k, warm_cfg.clone()).solve();
        assert!(warm1.is_optimal());
        assert_eq!(warm1.size(), cold.size());
        assert_eq!(warm1.vertices, cold.vertices, "byte-identical result");
        assert!(
            warm1.stats.ctcp_vertex_removals > 0,
            "first warm solve pays"
        );

        let warm2 = Solver::new(&g, k, warm_cfg).solve();
        assert!(warm2.is_optimal());
        assert_eq!(warm2.vertices, cold.vertices);
        assert_eq!(
            warm2.stats.ctcp_vertex_removals, 0,
            "resumed reducer is already at the fixpoint"
        );
        assert_eq!(warm2.stats.ctcp_edge_removals, 0);
        assert_eq!(
            warm2.stats.universe_rebuilds, 1,
            "warm path performs no extra universe rebuilds"
        );

        // A mismatched resident reducer (wrong k) is ignored, not misused.
        let wrong = Arc::new(Mutex::new(Ctcp::new(&g, k + 1)));
        let sol = Solver::new(&g, k, SolverConfig::kdc().with_shared_ctcp(wrong)).solve();
        assert_eq!(sol.size(), cold.size());
        assert!(sol.is_optimal());
    }

    #[test]
    fn mid_search_retighten_restarts_are_sound() {
        // No-heuristic configurations start at lb = 0 and improve the
        // incumbent many times mid-search, exercising the re-tighten +
        // rebuild loop; the answer must match the fully warm-started solver.
        let mut rng = gen::seeded_rng(93);
        let mut most_rebuilds = 0;
        for trial in 0..4 {
            let g = gen::gnp(45, 0.35, &mut rng);
            for k in [0usize, 2] {
                let mut cfg = SolverConfig::kdc();
                cfg.heuristic = InitialHeuristic::None;
                let cold = Solver::new(&g, k, cfg).solve();
                let reference = Solver::new(&g, k, SolverConfig::kdc()).solve();
                assert_eq!(cold.size(), reference.size(), "trial {trial} k {k}");
                assert!(cold.is_optimal());
                assert!(g.is_k_defective_clique(&cold.vertices, k));
                most_rebuilds = most_rebuilds.max(cold.stats.universe_rebuilds);
            }
        }
        // At least one solve restarted, re-priming its engine.
        assert!(most_rebuilds >= 2, "no restart exercised: {most_rebuilds}");
    }

    #[test]
    fn monotone_in_k() {
        let mut rng = gen::seeded_rng(31);
        for _ in 0..5 {
            let g = gen::gnp(30, 0.3, &mut rng);
            let mut prev = 0;
            for k in 0..8 {
                let s = max_defective_clique(&g, k).size();
                assert!(s >= prev, "size must be monotone in k");
                prev = s;
            }
        }
    }
}
