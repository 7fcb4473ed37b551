//! Degeneracy-ordered ego decomposition for very large sparse graphs.
//!
//! The paper's kDC branch-and-bounds over the whole (preprocessed) graph.
//! For graphs whose reduced universe is still large, a classic scalability
//! technique (used e.g. by MC-BRB for cliques) decomposes the problem into
//! one small instance per vertex:
//!
//! For an ordering `v_1 … v_n`, every k-defective clique `C` with
//! `|C| ≥ k + 3` satisfies: any two members share a common neighbour *inside
//! C* (each vertex has ≥ |C| − 1 − k ≥ 2 neighbours in C, and two vertices
//! can jointly miss at most k edges to the other |C| − 2 ≥ k + 1 members).
//! Hence, with `v` the earliest member of `C` in the ordering, `C` lies
//! within distance 2 of `v` *inside the subgraph induced by v and its
//! successors*. Solving, for every `v`, the instance
//!
//! ```text
//! U_v = {v} ∪ { w ≻ v : dist_{G[v ∪ succ(v)]}(v, w) ≤ 2 },  S = {v}
//! ```
//!
//! finds every solution of size ≥ k + 3. The decomposition is therefore
//! exact whenever the initial lower bound satisfies `lb ≥ k + 2` (only
//! solutions strictly larger than `lb` remain interesting); otherwise
//! [`solve_decomposed`] continues with the sequential branch and bound.
//!
//! # One pipeline, one budget
//!
//! The decomposition replaces only line 3 of Algorithm 2. Lines 1–2 (the
//! peeling, the heuristic, the seed, the reducer) are the solver's own
//! prelude (see [`crate::solver`]), which also starts the solve's one
//! [`SolveBudget`]: every ego instance runs until the solve's deadline on
//! the nodes the solve has not yet spent, and a worker stops once the
//! budget is exhausted or a limit or a cancellation cuts an instance
//! short.
//!
//! # The shared universe and the per-worker arena
//!
//! All ego subproblems live inside **one** CTCP-reduced universe: the
//! prelude's reducer, tightened against the initial lower bound, is
//! extracted once as a CSR [`Graph`] (`universe_rebuilds = 1`), and the
//! degeneracy ordering is restricted to the survivors. Each worker then
//! owns a `SubproblemArena`: flat CSR buffers, a reusable `Marker`, and one
//! long-lived engine re-primed per vertex via `Engine::reset`, the same
//! priming path `Solver::solve` uses across restarts — so the per-vertex
//! loop performs **no universe allocation in steady state**
//! (`arena_reuses` counts exactly the instances served this way).
//!
//! Instances are independent, so they are solved on parallel threads
//! (std scoped threads; the incumbent size is shared through an atomic).
//! Each worker folds its instances' search statistics into one
//! `SearchStats` and its runs' statuses into the most severe one, both
//! merged into the solution's once at exit.

use crate::config::{InitialHeuristic, SolveEvent, SolverConfig};
use crate::engine::Engine;
use crate::solver::{Pipeline, SolveBudget};
use crate::stats::{SearchStats, Solution, Status};
use kdc_graph::graph::{Graph, VertexId};
use kdc_graph::scratch::Marker;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Per-worker reusable state for the ego-subproblem loop: universe and
/// relabelling buffers, the flat CSR of the current instance, and one
/// long-lived engine re-primed via `Engine::reset`. After the first
/// instance has grown the buffers, priming another instance of no larger
/// size allocates nothing — a claim checked directly by the counting
/// global-allocator test in `crates/lint/tests/alloc_guard.rs`, which is
/// why the admit/solve cycle is public.
pub struct SubproblemArena {
    engine: Engine,
    /// Current ego universe (reduced ids, sorted ascending once built).
    universe: Vec<u32>,
    /// Membership marker over the reduced universe.
    member: Marker,
    /// reduced id → local id of the current instance (valid only for
    /// marked members, so it never needs clearing).
    local_id: Vec<u32>,
    csr_off: Vec<usize>,
    csr_dat: Vec<u32>,
    /// Whether the engine has been primed at least once.
    primed: bool,
    /// Instances served by re-priming the existing arena.
    reuses: u64,
    /// Instances actually searched.
    instances: u64,
}

impl SubproblemArena {
    /// An arena for ego instances drawn from a reduced universe of
    /// `n_reduced` vertices.
    pub fn new(n_reduced: usize, k: usize, config: SolverConfig) -> Self {
        SubproblemArena {
            engine: Engine::hollow(k, config),
            universe: Vec::new(),
            member: Marker::new(n_reduced),
            local_id: vec![0; n_reduced],
            csr_off: Vec::new(),
            csr_dat: Vec::new(),
            primed: false,
            reuses: 0,
            instances: 0,
        }
    }

    /// Starts a new instance: clears the membership marker and the
    /// universe buffer (no deallocation — capacity is the point).
    pub fn begin_instance(&mut self) {
        self.member.reset();
        self.universe.clear();
    }

    /// Admits `u` (a reduced id) into the current universe unless already
    /// a member; returns whether it was new.
    pub fn admit(&mut self, u: u32) -> bool {
        if self.member.is_marked(u as usize) {
            return false;
        }
        self.member.mark(u as usize);
        self.universe.push(u);
        true
    }

    /// Current universe size.
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    /// Instances served by re-priming existing buffers (everything after
    /// the first, for a worker fed same-or-smaller instances).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Size of the best solution found by the most recent instance.
    pub fn best_len(&self) -> usize {
        self.engine.best().len()
    }

    /// Builds the induced-subgraph CSR of `universe` (sorting it ascending
    /// first) from the shared reduced graph, primes the engine at floor
    /// `lb` with `v` forced into S, and runs the search on what is left of
    /// `budget`. Returns whether the run completed. This is the
    /// steady-state hot path: after warm-up it must not touch the
    /// allocator.
    // kdc-lint: hot-path
    pub fn solve_instance(&mut self, red: &Graph, v: u32, lb: usize, budget: &SolveBudget) -> bool {
        self.universe.sort_unstable();
        self.csr_off.clear();
        self.csr_dat.clear();
        self.csr_off.push(0);
        for (li, &u) in self.universe.iter().enumerate() {
            self.local_id[u as usize] = li as u32;
        }
        for &u in &self.universe {
            for &w in red.neighbors(u) {
                if self.member.is_marked(w as usize) {
                    self.csr_dat.push(self.local_id[w as usize]);
                }
            }
            self.csr_off.push(self.csr_dat.len());
        }
        if self.primed {
            self.reuses += 1;
        } else {
            self.primed = true;
        }
        self.instances += 1;
        self.engine.reset(&self.csr_off, &self.csr_dat, lb);
        self.engine.force_into_s(self.local_id[v as usize]);
        self.engine.run(budget)
    }
}

/// Exact maximum k-defective clique via parallel ego decomposition.
///
/// `threads = 0` uses all available cores. Continues with the sequential
/// branch and bound of [`crate::Solver`] when the initial bound is below
/// `k + 2` (where the distance-2 containment argument does not apply).
///
/// ```
/// use kdc::{decompose::solve_decomposed, SolverConfig};
/// use kdc_graph::gen;
///
/// let (g, planted) =
///     gen::planted_defective_clique(500, 15, 2, 0.01, &mut gen::seeded_rng(1));
/// let sol = solve_decomposed(&g, 2, SolverConfig::kdc(), 0);
/// assert!(sol.is_optimal());
/// assert!(sol.vertices.len() >= planted.len());
/// ```
pub fn solve_decomposed(g: &Graph, k: usize, mut config: SolverConfig, threads: usize) -> Solution {
    // The ordering is the heuristic's peeling and the containment argument
    // needs its bound, so a solve configured without a heuristic runs Degen.
    if config.heuristic == InitialHeuristic::None {
        config.heuristic = InitialHeuristic::Degen;
    }
    let mut pipeline = Pipeline::prelude(g, k, config);
    if pipeline.best.len() < k + 2 {
        return pipeline.branch_and_bound();
    }
    let Some((red, keep)) = pipeline.next_universe() else {
        return pipeline.finish(Status::Optimal);
    };
    let peeling = pipeline
        .peeling
        .as_deref()
        .expect("a heuristic peeled the input");
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    };

    // The input ordering restricted to the survivors (any ordering keeps
    // the containment argument valid; the degeneracy restriction keeps the
    // successor sets small), plus ranks, both in reduced ids.
    let n_red = keep.len();
    let mut red_id: Vec<u32> = vec![u32::MAX; g.n()];
    for (i, &v) in keep.iter().enumerate() {
        red_id[v as usize] = i as u32;
    }
    let order: Vec<u32> = peeling
        .order
        .iter()
        .filter_map(|&v| {
            let r = red_id[v as usize];
            (r != u32::MAX).then_some(r)
        })
        .collect();
    let mut rank: Vec<u32> = vec![0; n_red];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }

    let best_size = AtomicUsize::new(pipeline.best.len());
    let best_sol: Mutex<Vec<VertexId>> = Mutex::new(std::mem::take(&mut pipeline.best));
    let next_task = AtomicUsize::new(0);
    // Search statistics and the most severe run status, merged once per
    // worker at exit (never contended inside the ego loop).
    let totals = Mutex::new((SearchStats::default(), Status::Optimal));
    let (config, budget) = (&pipeline.config, &pipeline.budget);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut arena = SubproblemArena::new(n_red, k, config.clone());
                let mut local = SearchStats::default();
                let mut status = Status::Optimal;
                loop {
                    let i = next_task.fetch_add(1, Ordering::Relaxed);
                    if i >= n_red {
                        break;
                    }
                    if let Some(stop) = budget.exhausted() {
                        status = stop;
                        break;
                    }
                    let v = order[i];
                    let lb = best_size.load(Ordering::Relaxed);
                    // Universe: v + successors within distance 2 through
                    // successor paths.
                    arena.begin_instance();
                    arena.admit(v);
                    let v_rank = rank[v as usize];
                    for &w in red.neighbors(v) {
                        if rank[w as usize] > v_rank {
                            arena.admit(w);
                        }
                    }
                    let direct = arena.universe.len();
                    for di in 1..direct {
                        let w = arena.universe[di];
                        // All successors *of v* adjacent to w (their rank may
                        // be below w's, so w's full neighbour list is needed,
                        // filtered to the ≻ v region).
                        for &x in red.neighbors(w) {
                            if rank[x as usize] > v_rank {
                                arena.admit(x);
                            }
                        }
                    }
                    // Solutions containing v of size > lb need ≥ lb + 1
                    // vertices in the universe.
                    if arena.universe.len() <= lb {
                        continue;
                    }

                    let ego_span = config.trace.as_ref().map(|t| t.span("ego"));
                    let finished = arena.solve_instance(&red, v, lb, budget);
                    drop(ego_span);
                    local.absorb(&arena.engine.stats);
                    let found = arena.engine.best();
                    if found.len() > lb {
                        let mapped: Vec<VertexId> = found
                            .iter()
                            .map(|&x| keep[arena.universe[x as usize] as usize])
                            .collect();
                        debug_assert!(g.is_k_defective_clique(&mapped, k));
                        let mut guard = best_sol.lock().expect("poisoned");
                        if mapped.len() > guard.len() {
                            best_size.store(mapped.len(), Ordering::Relaxed);
                            if let Some(hook) = &config.on_event {
                                hook.emit(SolveEvent::Incumbent { size: mapped.len() });
                            }
                            *guard = mapped;
                        }
                    }
                    if !finished {
                        status = arena.engine.abort_status();
                        break;
                    }
                }
                local.arena_reuses = arena.reuses;
                local.ego_subproblems = arena.instances;
                let mut totals = totals.lock().expect("poisoned");
                totals.0.absorb(&local);
                totals.1 = totals.1.max(status);
            });
        }
    });

    let (totals, status) = totals.into_inner().expect("poisoned");
    pipeline.best = best_sol.into_inner().expect("poisoned");
    pipeline.stats.absorb(&totals);
    pipeline.finish(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdc_graph::gen;

    #[test]
    fn matches_global_solver_on_random_graphs() {
        let mut rng = gen::seeded_rng(555);
        for trial in 0..10 {
            let g = gen::gnp(40, 0.3, &mut rng);
            for k in [0usize, 1, 3] {
                let a = crate::Solver::new(&g, k, SolverConfig::kdc()).solve();
                let b = solve_decomposed(&g, k, SolverConfig::kdc(), 2);
                assert_eq!(a.size(), b.size(), "trial {trial} k {k}");
                assert!(g.is_k_defective_clique(&b.vertices, k));
                assert!(b.is_optimal());
            }
        }
    }

    #[test]
    fn threads_match_sequential_across_k() {
        // Satellite coverage: multi-threaded decomposition must agree with
        // the sequential global solver on a batch of random graphs for every
        // small k, including the k = 2 gap the older test left open.
        let mut rng = gen::seeded_rng(918);
        for trial in 0..6 {
            let g = gen::gnp(36, 0.35, &mut rng);
            for k in [0usize, 1, 2, 3] {
                let sequential = crate::Solver::new(&g, k, SolverConfig::kdc()).solve();
                let threaded = solve_decomposed(&g, k, SolverConfig::kdc(), 4);
                assert_eq!(
                    sequential.size(),
                    threaded.size(),
                    "trial {trial} k {k}: sequential {} vs decomposed {}",
                    sequential.size(),
                    threaded.size()
                );
                assert!(g.is_k_defective_clique(&threaded.vertices, k));
                assert!(threaded.is_optimal());
            }
        }
    }

    #[test]
    fn cancel_flag_stops_parallel_solve() {
        use crate::config::CancelFlag;
        let mut rng = gen::seeded_rng(919);
        let (g, _) = gen::planted_defective_clique(600, 18, 3, 0.02, &mut rng);
        let flag = CancelFlag::new();
        flag.cancel(); // pre-raised: every worker must bail out immediately
        let sol = solve_decomposed(&g, 3, SolverConfig::kdc().with_cancel(flag), 2);
        assert_eq!(sol.status, Status::Cancelled);
        assert!(g.is_k_defective_clique(&sol.vertices, 3));
    }

    #[test]
    fn falls_back_when_lb_too_small() {
        // A sparse path: heuristic lb < k + 2, so the decomposition is not
        // applicable and the global solver must kick in (still exact).
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let k = 4;
        let sol = solve_decomposed(&g, k, SolverConfig::kdc(), 2);
        let reference = crate::Solver::new(&g, k, SolverConfig::kdc()).solve();
        assert_eq!(sol.size(), reference.size());
    }

    #[test]
    fn community_graph_parallel_solve() {
        let mut rng = gen::seeded_rng(556);
        let g = gen::community(
            &gen::CommunityParams {
                communities: 6,
                community_size: 25,
                p_in: 0.7,
                p_out: 0.01,
            },
            &mut rng,
        );
        for k in [1usize, 3] {
            let a = crate::Solver::new(&g, k, SolverConfig::kdc()).solve();
            let b = solve_decomposed(&g, k, SolverConfig::kdc(), 0);
            assert_eq!(a.size(), b.size(), "k = {k}");
        }
    }

    #[test]
    fn planted_large_sparse_graph() {
        let mut rng = gen::seeded_rng(557);
        let (g, planted) = gen::planted_defective_clique(2_000, 20, 4, 0.005, &mut rng);
        let sol = solve_decomposed(&g, 4, SolverConfig::kdc(), 0);
        assert!(sol.size() >= planted.len());
        assert!(sol.is_optimal());
    }

    #[test]
    fn steady_state_ego_loop_reuses_the_arena() {
        // The structural zero-allocation claim: a single-threaded decomposed
        // solve builds the shared universe exactly once, and every searched
        // ego instance beyond the first re-primes the worker's arena instead
        // of allocating a fresh one.
        let g = arena_test_graph();
        let sol = solve_decomposed(&g, 2, SolverConfig::kdc(), 1);
        assert!(sol.is_optimal());
        assert_eq!(sol.stats.universe_rebuilds, 1, "one shared universe");
        assert!(
            sol.stats.ego_subproblems >= 2,
            "test graph too easy: {} instances",
            sol.stats.ego_subproblems
        );
        assert_eq!(
            sol.stats.arena_reuses,
            sol.stats.ego_subproblems - 1,
            "every instance after the first must reuse the arena"
        );

        // Multi-threaded: at most one non-reuse (first prime) per worker.
        let sol = solve_decomposed(&g, 2, SolverConfig::kdc(), 4);
        assert!(sol.is_optimal());
        assert_eq!(sol.stats.universe_rebuilds, 1);
        assert!(
            sol.stats.ego_subproblems - sol.stats.arena_reuses <= 4,
            "non-reused instances exceed worker count: {} of {}",
            sol.stats.ego_subproblems - sol.stats.arena_reuses,
            sol.stats.ego_subproblems
        );
    }

    /// The graph of `steady_state_ego_loop_reuses_the_arena`.
    fn arena_test_graph() -> Graph {
        gen::community(
            &gen::CommunityParams {
                communities: 8,
                community_size: 20,
                p_in: 0.55,
                p_out: 0.02,
            },
            &mut gen::seeded_rng(4242),
        )
    }

    #[test]
    fn node_limit_is_one_budget_across_ego_instances() {
        let g = arena_test_graph();
        let unlimited = solve_decomposed(&g, 2, SolverConfig::kdc(), 1);
        assert!(unlimited.stats.nodes > 10, "test graph too easy");
        for limit in [1u64, 3, 10] {
            let cfg = SolverConfig::kdc().with_node_limit(limit);
            let sol = solve_decomposed(&g, 2, cfg, 1);
            assert_eq!(sol.status, Status::NodeLimitReached, "limit {limit}");
            assert!(
                sol.stats.nodes <= limit,
                "limit {limit} spent {} nodes over {} instances",
                sol.stats.nodes,
                sol.stats.ego_subproblems
            );
            assert!(g.is_k_defective_clique(&sol.vertices, 2));
        }
        let cfg = SolverConfig::kdc().with_node_limit(3);
        let sol = solve_decomposed(&g, 2, cfg, 2);
        assert_eq!(sol.status, Status::NodeLimitReached);
    }

    #[test]
    fn kdc_t_decomposes_to_the_sequential_optimum() {
        let g = arena_test_graph();
        for k in [1usize, 2] {
            let sequential = crate::Solver::new(&g, k, SolverConfig::kdc_t()).solve();
            let threaded = solve_decomposed(&g, k, SolverConfig::kdc_t(), 2);
            assert!(threaded.is_optimal(), "k {k}");
            assert_eq!(threaded.size(), sequential.size(), "k {k}");
            assert!(threaded.stats.ego_subproblems > 0, "k {k}: fell back");
        }
    }

    #[test]
    fn traced_decomposed_solve_records_every_phase() {
        let g = arena_test_graph();
        let tracer = kdc_obs::Tracer::new();
        let mut cfg = SolverConfig::kdc();
        cfg.trace = Some(tracer.clone());
        let sol = solve_decomposed(&g, 2, cfg, 1);
        assert!(sol.stats.ego_subproblems > 0, "fell back");
        let names: Vec<&str> = tracer.summary().iter().map(|p| p.name).collect();
        for phase in ["peel", "heuristic", "tighten", "ego"] {
            assert!(names.contains(&phase), "no {phase} span in {names:?}");
        }
    }

    #[test]
    fn hostile_seeds_are_rejected_not_panicked() {
        // seed_solution is documented as validated: out-of-range ids and
        // duplicates must be ignored gracefully on the decomposed path too.
        let mut rng = gen::seeded_rng(4711);
        let g = gen::gnp(40, 0.4, &mut rng);
        let reference = solve_decomposed(&g, 2, SolverConfig::kdc(), 2);
        for bad in [
            vec![0u32, 0, 1],                      // duplicate
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9999], // out of range
        ] {
            let cfg = SolverConfig::kdc().with_seed_solution(bad);
            let sol = solve_decomposed(&g, 2, cfg, 2);
            assert_eq!(sol.size(), reference.size());
            assert!(sol.is_optimal());
        }
    }

    #[test]
    fn concurrent_solves_on_one_resident_reducer_stay_sound() {
        // Two solves sharing one resident reducer, racing with very
        // different lower bounds (one seeded at the optimum, one not): the
        // verify-and-extract guard must keep the weakly-bounded solve from
        // searching an over-tightened universe, so both report the true
        // optimum every time.
        use kdc_graph::ctcp::Ctcp;
        use std::sync::{Arc, Mutex};
        let mut rng = gen::seeded_rng(4712);
        let (g, _) = gen::planted_defective_clique(300, 14, 2, 0.03, &mut rng);
        let k = 2;
        let truth = crate::Solver::new(&g, k, SolverConfig::kdc()).solve();
        assert!(truth.is_optimal());
        for _ in 0..8 {
            let resident = Arc::new(Mutex::new(Ctcp::new(&g, k)));
            let strong_cfg = SolverConfig::kdc()
                .with_shared_ctcp(resident.clone())
                .with_seed_solution(truth.vertices.clone());
            // The weak solve starts from the bare Degen heuristic (lower
            // lb) while the strong one immediately tightens to the optimum.
            let mut weak_cfg = SolverConfig::kdc().with_shared_ctcp(resident.clone());
            weak_cfg.heuristic = InitialHeuristic::Degen;
            let (a, b) = std::thread::scope(|scope| {
                let ta = scope.spawn(|| crate::Solver::new(&g, k, strong_cfg).solve());
                let tb = scope.spawn(|| solve_decomposed(&g, k, weak_cfg, 2));
                (ta.join().unwrap(), tb.join().unwrap())
            });
            assert_eq!(a.size(), truth.size(), "strong solve regressed");
            assert_eq!(
                b.size(),
                truth.size(),
                "weak solve saw an over-pruned universe"
            );
            assert!(a.is_optimal() && b.is_optimal());
        }
    }

    #[test]
    fn ego_search_stats_surface_in_decomposed_stats() {
        // Every ego instance's statistics reach the solution, not only its
        // node count and per-bound telemetry.
        let mut rng = gen::seeded_rng(110);
        let g = gen::gnp(70, 0.5, &mut rng);
        let sol = solve_decomposed(&g, 3, SolverConfig::kdc(), 2);
        assert!(sol.is_optimal());
        let stats = &sol.stats;
        assert!(stats.ego_subproblems > 0, "decomposition fell back");
        assert_eq!(
            stats.bound_prunes,
            stats.bound_costs.iter().map(|bc| bc.prunes).sum::<u64>(),
            "stage attribution must cover exactly the bound prunes"
        );
        assert!(stats.bound_prunes > 0, "bound prunes dropped");
        assert!(stats.leaves > 0, "leaves dropped");
        assert!(stats.max_depth > 0, "depth dropped");
        assert!(stats.preprocess_time > std::time::Duration::ZERO);
    }

    #[test]
    fn ctcp_counters_surface_in_decomposed_stats() {
        let mut rng = gen::seeded_rng(77);
        let (g, _) = gen::planted_defective_clique(400, 16, 2, 0.02, &mut rng);
        let sol = solve_decomposed(&g, 2, SolverConfig::kdc(), 2);
        assert!(sol.is_optimal());
        assert!(
            sol.stats.ctcp_vertex_removals > 0,
            "planted instance must shrink"
        );
        assert!(
            sol.stats.ctcp_edge_removals > 0,
            "removed vertices carry their edges with them"
        );
        assert_eq!(
            sol.stats.preprocessed_n,
            g.n() - sol.stats.ctcp_vertex_removals as usize
        );
    }
}
