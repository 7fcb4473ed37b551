//! The resident [`Session`]: one graph, every cached artifact, one typed
//! query surface.

use crate::query::{Budget, CacheInfo, Event, Observer, Options, Outcome, Query};
use kdc::{bound, counting, decompose, topr, EventHook, Solution, Solver};
use kdc_graph::ctcp::Ctcp;
use kdc_graph::degeneracy::{self, Peeling};
use kdc_graph::{Graph, VertexId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering the data if a previous holder panicked. Every
/// structure behind a session mutex is a cache keyed by value (reducer
/// slots, result memos, witness maps): a panic mid-update can at worst
/// lose one entry, never corrupt an invariant, so serving the recovered
/// state beats poisoning every later query on the session.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The session counters, named once. Each is one slot of the session's
/// [`kdc_obs::CounterBlock`] and one `kdc_session_<name>_total` series;
/// [`SessionCounters`] and the daemon's `STATS <graph>` line read the
/// block. Variant order must match [`session_totals`] and
/// [`SessionCounters::fields`].
#[derive(Clone, Copy)]
enum SessionCounter {
    PeelBuilds,
    Solves,
    ResultHits,
    CtcpBuilds,
    CtcpResumes,
    CtcpEvictions,
    MemoEvictions,
    RecoveredWitnesses,
    RecoveredMemos,
    BatchCtcpShares,
    BatchWitnessSeeds,
    BatchMemoDedups,
}

/// Number of [`SessionCounter`]s.
const SESSION_COUNTERS: usize = 12;

/// The process-wide `kdc_session_*_total` series, registered once and
/// indexed by [`SessionCounter`].
fn session_totals() -> &'static [kdc_obs::Counter; SESSION_COUNTERS] {
    static TOTALS: OnceLock<[kdc_obs::Counter; SESSION_COUNTERS]> = OnceLock::new();
    TOTALS.get_or_init(|| {
        let r = kdc_obs::registry();
        [
            r.register_counter("kdc_session_peel_builds_total"),
            r.register_counter("kdc_session_solves_total"),
            r.register_counter("kdc_session_result_hits_total"),
            r.register_counter("kdc_session_ctcp_builds_total"),
            r.register_counter("kdc_session_ctcp_resumes_total"),
            r.register_counter("kdc_session_ctcp_evictions_total"),
            r.register_counter("kdc_session_memo_evictions_total"),
            r.register_counter("kdc_session_recovered_witnesses_total"),
            r.register_counter("kdc_session_recovered_memos_total"),
            r.register_counter("kdc_session_batch_ctcp_shares_total"),
            r.register_counter("kdc_session_batch_witness_seeds_total"),
            r.register_counter("kdc_session_batch_memo_dedups_total"),
        ]
    })
}

/// Process-global solve telemetry series: the latency histogram and the
/// per-bound cost columns, registered once.
struct SolveObs {
    solve_ns: kdc_obs::Histogram,
    bound_invocations: [kdc_obs::Counter; bound::COUNT],
    bound_prunes: [kdc_obs::Counter; bound::COUNT],
    bound_ns: [kdc_obs::Counter; bound::COUNT],
}

fn solve_obs() -> &'static SolveObs {
    static OBS: OnceLock<SolveObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = kdc_obs::registry();
        SolveObs {
            solve_ns: r.register_histogram("kdc_session_solve_duration_ns"),
            bound_invocations: std::array::from_fn(|i| {
                r.register_counter_labeled(
                    "kdc_core_bound_invocations_total",
                    "bound",
                    bound::NAMES[i],
                )
            }),
            bound_prunes: std::array::from_fn(|i| {
                r.register_counter_labeled("kdc_core_bound_prunes_total", "bound", bound::NAMES[i])
            }),
            bound_ns: std::array::from_fn(|i| {
                r.register_counter_labeled("kdc_core_bound_ns_total", "bound", bound::NAMES[i])
            }),
        }
    })
}

/// Publishes one finished solve's telemetry to the global registry: the
/// latency sample, per-preset node count and per-bound cost columns.
fn flush_solve_metrics(preset: &str, stats: &kdc::SearchStats, elapsed_ns: u64) {
    if !kdc_obs::enabled() {
        return;
    }
    let obs = solve_obs();
    obs.solve_ns.observe(elapsed_ns);
    kdc_obs::registry()
        .register_counter_labeled("kdc_session_nodes_total", "preset", preset)
        .add(stats.nodes);
    for (i, bc) in stats.bound_costs.iter().enumerate() {
        obs.bound_invocations[i].add(bc.invocations);
        obs.bound_prunes[i].add(bc.prunes);
        obs.bound_ns[i].add(bc.ns);
    }
}

/// Workers may not spawn unbounded decomposition threads on a caller's
/// say-so; `Budget::threads` beyond this is clamped (0 still means "all
/// cores").
const MAX_SOLVE_THREADS: usize = 256;

/// Default cap on resident CTCP reducers (see
/// [`Session::with_ctcp_capacity`]).
pub const DEFAULT_CTCP_CAPACITY: usize = 8;

/// Default cap on memoized proven-optimal results (see
/// [`Session::with_memo_capacity`]). Deliberately generous: a memo entry is
/// one witness plus counters, so hundreds are cheap — the cap exists to
/// stop unbounded growth under long-lived k/preset churn, not to be felt.
pub const DEFAULT_MEMO_CAPACITY: usize = 512;

/// Memo key for a proven-optimal solve result: the answer depends only on
/// the graph, `k` and the algorithm variant (all exact presets agree on the
/// *size*, but the key includes the preset so the reported vertex set is
/// reproducible per preset).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct SolveKey {
    /// The k of the k-defective clique.
    pub k: usize,
    /// Preset name (`"kdc"` for the default).
    pub preset: String,
}

/// Cache key for a resident CTCP reducer: its state depends on `k` and on
/// which of the two rules (RR5 core / RR6 truss) the configuration enables.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub struct CtcpKey {
    /// The k of the k-defective clique.
    pub k: usize,
    /// Whether the degree (RR5) rule is active.
    pub core_rule: bool,
    /// Whether the support (RR6) rule is active.
    pub truss_rule: bool,
}

/// Usage counters of a [`Session`], for warm-vs-cold assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Degeneracy peelings computed (at most 1 for the session's lifetime).
    pub peel_builds: u64,
    /// Real (non-memo) searches executed.
    pub solves: u64,
    /// Queries answered from the proven-optimal result memo.
    pub result_hits: u64,
    /// Resident CTCP reducers built from scratch.
    pub ctcp_builds: u64,
    /// Solves that resumed a resident reducer.
    pub ctcp_resumes: u64,
    /// Reducers evicted from the bounded LRU cache.
    pub ctcp_evictions: u64,
    /// Batch sub-solves whose reducer was tightened to a lower-bound floor
    /// contributed by other sub-queries.
    pub batch_ctcp_shares: u64,
    /// Batch sub-solves seeded by a witness another sub-query produced.
    pub batch_witness_seeds: u64,
    /// Batch sub-queries answered without a search of their own (in-batch
    /// duplicates fanned out plus proven-optimal memo hits).
    pub batch_memo_dedups: u64,
    /// Proven-optimal memo entries evicted from the bounded LRU memo.
    pub memo_evictions: u64,
    /// Witnesses rehydrated from the durable store at recovery.
    pub recovered_witnesses: u64,
    /// Proven-optimal memo entries rehydrated from the durable store at
    /// recovery.
    pub recovered_memos: u64,
}

impl SessionCounters {
    /// Every counter as a `(name, value)` pair, in `STATS` order. Each name
    /// is also the process-wide `kdc_session_<name>_total` series.
    pub fn fields(&self) -> [(&'static str, u64); SESSION_COUNTERS] {
        [
            ("peel_builds", self.peel_builds),
            ("solves", self.solves),
            ("result_hits", self.result_hits),
            ("ctcp_builds", self.ctcp_builds),
            ("ctcp_resumes", self.ctcp_resumes),
            ("ctcp_evictions", self.ctcp_evictions),
            ("memo_evictions", self.memo_evictions),
            ("recovered_witnesses", self.recovered_witnesses),
            ("recovered_memos", self.recovered_memos),
            ("batch_ctcp_shares", self.batch_ctcp_shares),
            ("batch_witness_seeds", self.batch_witness_seeds),
            ("batch_memo_dedups", self.batch_memo_dedups),
        ]
    }
}

/// The exportable warm state of a [`Session`]: everything the durable
/// store persists and recovery feeds back through
/// [`Session::import_state`]. Witnesses are `(k, vertices)` pairs; memos
/// pair a [`SolveKey`] with its proven solution.
#[derive(Clone, Debug, Default)]
pub struct SessionState {
    /// Best-known witness per defect budget, ascending `k`.
    pub witnesses: Vec<(usize, Vec<VertexId>)>,
    /// Proven-optimal memo entries, ascending `(k, preset)`.
    pub memos: Vec<(SolveKey, Solution)>,
}

/// One resident reducer slot of the bounded LRU cache.
struct CtcpSlot {
    key: CtcpKey,
    reducer: Arc<Mutex<Ctcp>>,
    last_used: u64,
}

/// The bounded reducer cache: linear-scan LRU (the cap is single-digit).
struct CtcpCache {
    cap: usize,
    tick: u64,
    slots: Vec<CtcpSlot>,
}

/// One memoized proven-optimal result with its recency stamp.
struct MemoSlot {
    solution: Solution,
    last_used: u64,
}

/// The bounded result memo: a hash map with LRU eviction at `cap`. The
/// scan to find the eviction victim is linear, which at the default cap is
/// still nanoseconds next to the solves the memo is summarizing.
struct MemoCache {
    cap: usize,
    tick: u64,
    map: HashMap<SolveKey, MemoSlot>,
}

/// A resident solver session over one graph.
///
/// A `Session` owns an `Arc<Graph>` plus every artifact worth keeping warm
/// between queries — the degeneracy peeling, a bounded LRU cache of
/// incremental CTCP reducers (one per `(k, rules)` combination), the best
/// known witness per `k`, and a memo of proven-optimal results per
/// `(k, preset)` — and answers typed [`Query`]s through [`Session::run`].
/// The CLI, the daemon, the benches and embedding applications all drive
/// this one surface, so the measured path *is* the served path.
///
/// All methods take `&self`; a `Session` wrapped in an `Arc` serves
/// concurrent queries from many threads (counters are atomics, caches sit
/// behind coarse mutexes, the solves themselves run outside any lock).
pub struct Session {
    graph: Arc<Graph>,
    peeling: OnceLock<Arc<Peeling>>,
    ctcp: Mutex<CtcpCache>,
    results: Mutex<MemoCache>,
    best_known: Mutex<HashMap<usize, Vec<VertexId>>>,
    counters: kdc_obs::CounterBlock<SESSION_COUNTERS>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("n", &self.graph.n())
            .field("m", &self.graph.m())
            .field("counters", &self.counters())
            .finish()
    }
}

impl Session {
    /// A session over an owned graph.
    pub fn new(graph: Graph) -> Self {
        Self::from_arc(Arc::new(graph))
    }

    /// A session over an already shared graph (services that hand the same
    /// `Arc<Graph>` to in-flight jobs).
    pub fn from_arc(graph: Arc<Graph>) -> Self {
        Session {
            graph,
            peeling: OnceLock::new(),
            ctcp: Mutex::new(CtcpCache {
                cap: DEFAULT_CTCP_CAPACITY,
                tick: 0,
                slots: Vec::new(),
            }),
            results: Mutex::new(MemoCache {
                cap: DEFAULT_MEMO_CAPACITY,
                tick: 0,
                map: HashMap::new(),
            }),
            best_known: Mutex::new(HashMap::new()),
            counters: kdc_obs::CounterBlock::new(session_totals()),
        }
    }

    /// Parses a graph file (DIMACS/METIS/edge list by extension) into a
    /// session.
    ///
    /// # Errors
    ///
    /// Fails with a message naming the path when the file cannot be read
    /// or parsed in any supported format.
    pub fn open(path: &Path) -> Result<Self, String> {
        let graph = kdc_graph::io::read_graph(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(Self::new(graph))
    }

    /// Caps the number of resident CTCP reducers (default
    /// [`DEFAULT_CTCP_CAPACITY`]); beyond it the least-recently-used reducer
    /// is evicted (counted in [`SessionCounters::ctcp_evictions`]). A cap of
    /// `0` disables reducer residency entirely — every solve builds fresh.
    pub fn with_ctcp_capacity(self, cap: usize) -> Self {
        lock_unpoisoned(&self.ctcp).cap = cap;
        self
    }

    /// Caps the proven-optimal result memo (default
    /// [`DEFAULT_MEMO_CAPACITY`]); beyond it the least-recently-used entry
    /// is evicted (counted in [`SessionCounters::memo_evictions`]). A cap
    /// of `0` disables result memoization entirely.
    pub fn with_memo_capacity(self, cap: usize) -> Self {
        let mut memo = lock_unpoisoned(&self.results);
        memo.cap = cap;
        while memo.map.len() > cap {
            evict_lru_memo(&mut memo);
            self.bump(SessionCounter::MemoEvictions, 1);
        }
        drop(memo);
        self
    }

    /// The session's graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The degeneracy peeling (ordering, ranks, core numbers), computed at
    /// most once per session and shared from then on.
    pub fn peeling(&self) -> Arc<Peeling> {
        self.peeling_traced(None)
    }

    /// [`Session::peeling`], tracing a fresh peel as a `peel_build` span on
    /// `trace`.
    fn peeling_traced(&self, trace: Option<&kdc_obs::Tracer>) -> Arc<Peeling> {
        self.peeling
            .get_or_init(|| {
                self.bump(SessionCounter::PeelBuilds, 1);
                let _span = trace.map(|t| t.span("peel_build"));
                Arc::new(degeneracy::peel(&self.graph))
            })
            .clone()
    }

    /// Degeneracy of the graph (forces the peeling artifact).
    pub fn degeneracy(&self) -> usize {
        self.peeling().degeneracy
    }

    /// A snapshot of the usage counters.
    pub fn counters(&self) -> SessionCounters {
        let get = |c: SessionCounter| self.counters.get(c as usize);
        SessionCounters {
            peel_builds: get(SessionCounter::PeelBuilds),
            solves: get(SessionCounter::Solves),
            result_hits: get(SessionCounter::ResultHits),
            ctcp_builds: get(SessionCounter::CtcpBuilds),
            ctcp_resumes: get(SessionCounter::CtcpResumes),
            ctcp_evictions: get(SessionCounter::CtcpEvictions),
            batch_ctcp_shares: get(SessionCounter::BatchCtcpShares),
            batch_witness_seeds: get(SessionCounter::BatchWitnessSeeds),
            batch_memo_dedups: get(SessionCounter::BatchMemoDedups),
            memo_evictions: get(SessionCounter::MemoEvictions),
            recovered_witnesses: get(SessionCounter::RecoveredWitnesses),
            recovered_memos: get(SessionCounter::RecoveredMemos),
        }
    }

    /// Counts `n` on the session and in its `kdc_session_*_total` series.
    fn bump(&self, counter: SessionCounter, n: u64) {
        self.counters.bump(counter as usize, n);
    }

    /// A [`CacheInfo`] with nothing reused, stamped with the session's
    /// reducer eviction count.
    pub(crate) fn cache_info(&self) -> CacheInfo {
        CacheInfo {
            ctcp_evictions: self.counters.get(SessionCounter::CtcpEvictions as usize),
            ..CacheInfo::default()
        }
    }

    /// Exports the session's warm state — best-known witnesses and the
    /// proven-optimal memo — in a deterministic order, for the durable
    /// store to snapshot.
    pub fn export_state(&self) -> SessionState {
        let mut witnesses: Vec<(usize, Vec<VertexId>)> = lock_unpoisoned(&self.best_known)
            .iter()
            .filter(|(_, w)| !w.is_empty())
            .map(|(&k, w)| (k, w.clone()))
            .collect();
        witnesses.sort_unstable_by_key(|&(k, _)| k);
        let mut memos: Vec<(SolveKey, Solution)> = lock_unpoisoned(&self.results)
            .map
            .iter()
            .map(|(key, slot)| (key.clone(), slot.solution.clone()))
            .collect();
        memos.sort_unstable_by(|(a, _), (b, _)| {
            (a.k, a.preset.as_str()).cmp(&(b.k, b.preset.as_str()))
        });
        SessionState { witnesses, memos }
    }

    /// Rehydrates warm state exported by [`Session::export_state`] (usually
    /// via the durable store after a restart). Every entry is revalidated
    /// against *this* session's graph — a witness must be a strictly
    /// ascending in-range k-defective clique, a memo additionally a proven
    /// [`kdc::Status::Optimal`] under a known preset — and anything that
    /// fails is silently dropped: recovered state is a hint, never an
    /// oracle. Accepted witnesses seed [`Session::best_known`]; accepted
    /// memos answer later queries `cached`. Returns
    /// `(witnesses_accepted, memos_accepted)`, also tracked by
    /// [`SessionCounters::recovered_witnesses`] /
    /// [`SessionCounters::recovered_memos`].
    pub fn import_state(&self, state: &SessionState) -> (u64, u64) {
        let valid = |vertices: &[VertexId], k: usize| -> bool {
            !vertices.is_empty()
                && vertices.windows(2).all(|pair| pair[0] < pair[1])
                && vertices.iter().all(|&v| (v as usize) < self.graph.n())
                && self.graph.is_k_defective_clique(vertices, k)
        };
        let mut witnesses = 0u64;
        for (k, vertices) in &state.witnesses {
            if valid(vertices, *k) {
                self.record_best_known(*k, vertices);
                witnesses += 1;
            }
        }
        let mut memos = 0u64;
        for (key, solution) in &state.memos {
            if solution.status != kdc::Status::Optimal
                || Options::preset(&key.preset).is_err()
                || !valid(&solution.vertices, key.k)
            {
                continue;
            }
            // A proven optimum is also the best witness for its k.
            self.record_best_known(key.k, &solution.vertices);
            self.memoize_result(key.clone(), solution.clone());
            memos += 1;
        }
        self.bump(SessionCounter::RecoveredWitnesses, witnesses);
        self.bump(SessionCounter::RecoveredMemos, memos);
        (witnesses, memos)
    }

    /// The best known solution for `k`, if any (cloned; seeds warm solves).
    pub fn best_known(&self, k: usize) -> Option<Vec<VertexId>> {
        lock_unpoisoned(&self.best_known).get(&k).cloned()
    }

    /// Records `vertices` as the best known solution for `k` when it beats
    /// the stored witness. Witnesses come straight out of the solver, so
    /// they are trusted here (and re-validated by the solver when seeded
    /// back in).
    fn record_best_known(&self, k: usize, vertices: &[VertexId]) {
        let mut map = lock_unpoisoned(&self.best_known);
        let entry = map.entry(k).or_default();
        if vertices.len() > entry.len() {
            *entry = vertices.to_vec();
        }
    }

    /// A memoized proven-optimal result for `key`, if any. A hit refreshes
    /// the entry's LRU stamp.
    fn cached_result(&self, key: &SolveKey) -> Option<Solution> {
        let mut memo = lock_unpoisoned(&self.results);
        memo.tick += 1;
        let tick = memo.tick;
        let found = memo.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            slot.solution.clone()
        });
        drop(memo);
        if found.is_some() {
            self.bump(SessionCounter::ResultHits, 1);
        }
        found
    }

    /// The resident CTCP reducer for `key`, built on first use and resumed
    /// from then on; returns `(reducer, resumed)`. A fresh build takes its
    /// core order from `peeling`, the session's one peel, which the caller
    /// fetches before this takes the cache lock, and is traced as a
    /// `ctcp_build` span on `trace`. Evicts the least-recently-used slot
    /// when the cache is full.
    fn ctcp_state(
        &self,
        key: CtcpKey,
        peeling: &Peeling,
        trace: Option<&kdc_obs::Tracer>,
    ) -> (Arc<Mutex<Ctcp>>, bool) {
        let mut cache = lock_unpoisoned(&self.ctcp);
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(slot) = cache.slots.iter_mut().find(|s| s.key == key) {
            slot.last_used = tick;
            self.bump(SessionCounter::CtcpResumes, 1);
            return (slot.reducer.clone(), true);
        }
        self.bump(SessionCounter::CtcpBuilds, 1);
        let span = trace.map(|t| t.span("ctcp_build"));
        let fresh = Arc::new(Mutex::new(Ctcp::with_peeling(
            &self.graph,
            key.k,
            key.core_rule,
            key.truss_rule,
            peeling,
        )));
        drop(span);
        if cache.cap == 0 {
            return (fresh, false);
        }
        if cache.slots.len() >= cache.cap {
            let mut lru = 0;
            for (i, slot) in cache.slots.iter().enumerate().skip(1) {
                if slot.last_used < cache.slots[lru].last_used {
                    lru = i;
                }
            }
            cache.slots.swap_remove(lru);
            self.bump(SessionCounter::CtcpEvictions, 1);
        }
        cache.slots.push(CtcpSlot {
            key,
            reducer: fresh.clone(),
            last_used: tick,
        });
        (fresh, false)
    }

    /// Every `(k, size)` pair the proven-optimal memo can vouch for, for
    /// pre-seeding a batch sweep's upper-bound caps. Sizes are
    /// preset-independent (every exact preset agrees on the optimum), so
    /// duplicate k entries across presets collapse to one pair.
    pub(crate) fn memoized_optimal_sizes(&self) -> Vec<(usize, usize)> {
        let results = lock_unpoisoned(&self.results);
        let mut sizes: HashMap<usize, usize> = HashMap::new();
        for (key, slot) in results.map.iter() {
            sizes.insert(key.k, slot.solution.vertices.len());
        }
        let mut out: Vec<(usize, usize)> = sizes.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Inserts a proven-optimal solution into the bounded result memo,
    /// evicting the least-recently-used entry at capacity.
    fn memoize_result(&self, key: SolveKey, solution: Solution) {
        let mut memo = lock_unpoisoned(&self.results);
        if memo.cap == 0 {
            return;
        }
        memo.tick += 1;
        let tick = memo.tick;
        if let Some(slot) = memo.map.get_mut(&key) {
            slot.solution = solution;
            slot.last_used = tick;
            return;
        }
        if memo.map.len() >= memo.cap {
            evict_lru_memo(&mut memo);
            self.bump(SessionCounter::MemoEvictions, 1);
        }
        memo.map.insert(
            key,
            MemoSlot {
                solution,
                last_used: tick,
            },
        );
    }

    /// Folds one finished batch's shared-work counters into the session
    /// counter block.
    pub(crate) fn note_batch_shared_work(&self, shares: u64, seeds: u64, dedups: u64) {
        self.bump(SessionCounter::BatchCtcpShares, shares);
        self.bump(SessionCounter::BatchWitnessSeeds, seeds);
        self.bump(SessionCounter::BatchMemoDedups, dedups);
    }

    /// Convenience wrapper: [`Session::run`] with `Solve { k }` and default
    /// budget/options (which cannot fail).
    pub fn solve(&self, k: usize) -> Outcome {
        self.run(&Query::Solve { k }, &Budget::default(), &Options::default())
            // kdc-lint: allow(no_panic) — the default preset is statically valid.
            .expect("default options are always valid")
    }

    /// Runs one query to completion. See [`Session::run_with`] for the
    /// observer-carrying variant.
    ///
    /// # Errors
    ///
    /// Fails on invalid options (unknown preset) or invalid query
    /// parameters (e.g. a zero top-r pool); never on solver-side limits,
    /// which are reported through [`Outcome::status`].
    pub fn run(
        &self,
        query: &Query,
        budget: &Budget,
        options: &Options,
    ) -> Result<Outcome, String> {
        self.run_with(query, budget, options, None)
    }

    /// Runs one query, streaming [`Event`]s to `observer` while it executes.
    /// Events are delivered synchronously from the solving thread(s); the
    /// final [`Event::Done`] precedes the return.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::run`]: invalid options or query
    /// parameters fail fast, exhausted budgets come back as a non-optimal
    /// [`Outcome::status`].
    pub fn run_with(
        &self,
        query: &Query,
        budget: &Budget,
        options: &Options,
        observer: Option<Arc<dyn Observer>>,
    ) -> Result<Outcome, String> {
        self.run_observed(query, budget, options, observer, None)
    }

    /// Runs one query with the full observability surface: optional
    /// [`Event`] streaming plus an optional [`kdc_obs::Tracer`] whose ring
    /// collects the solve's phase spans (peel / tighten / branch / ego) for
    /// `--profile` tables, the daemon's `TRACE` verb and slow-query logs.
    /// Solve telemetry (latency, per-preset nodes, per-bound costs) is
    /// published to the global [`kdc_obs::registry`] regardless of `trace`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::run`]: invalid options or query
    /// parameters fail fast, exhausted budgets come back as a non-optimal
    /// [`Outcome::status`].
    pub fn run_observed(
        &self,
        query: &Query,
        budget: &Budget,
        options: &Options,
        observer: Option<Arc<dyn Observer>>,
        trace: Option<kdc_obs::Tracer>,
    ) -> Result<Outcome, String> {
        let outcome = match query {
            Query::Solve { k } => self.run_solve(
                *k,
                budget,
                options,
                observer.clone(),
                trace,
                SweepHints::default(),
            ),
            Query::Enumerate { k } => self.run_top_r(*k, usize::MAX, false, budget, options),
            Query::TopR { k, r, diversify } => self.run_top_r(*k, *r, *diversify, budget, options),
            Query::Count { k, min_size } => self.run_count(*k, *min_size, budget),
            // A batch folds into one Outcome for the uniform `run` surface:
            // one primary witness per sub-query (input order), the most
            // severe status, summed search stats. Callers wanting the
            // per-sub-query outcomes and shared-work counters use
            // `Session::run_batch` directly.
            Query::Batch(subs) => {
                let t0 = Instant::now();
                let batch =
                    self.run_batch_observed(subs, budget, options, observer.clone(), trace)?;
                let status = batch.status();
                let mut stats = kdc::SearchStats::default();
                let mut witnesses = Vec::with_capacity(batch.outcomes.len());
                for outcome in &batch.outcomes {
                    stats.absorb(&outcome.stats);
                    witnesses.push(outcome.best().unwrap_or_default().to_vec());
                }
                Ok(Outcome {
                    witnesses,
                    counts: None,
                    status,
                    stats,
                    cache: self.cache_info(),
                    elapsed: t0.elapsed(),
                })
            }
        }?;
        if let Some(obs) = &observer {
            obs.event(&Event::Done {
                status: outcome.status,
            });
        }
        Ok(outcome)
    }

    /// The proven-optimal answer to `Solve { k }` under `options` from the
    /// result memo, if the session holds one: exactly what [`Session::run`]
    /// returns for that query without searching, so a caller can answer it
    /// without scheduling work. A hit counts in
    /// [`SessionCounters::result_hits`]; custom options never hit.
    pub fn memoized_solve(&self, k: usize, options: &Options) -> Option<Outcome> {
        let key = SolveKey {
            k,
            preset: options.memo_preset()?.to_string(),
        };
        self.memo_outcome(&key, Instant::now())
    }

    /// The [`Outcome`] of a memo hit on `key`, timed from `t0`.
    fn memo_outcome(&self, key: &SolveKey, t0: Instant) -> Option<Outcome> {
        let solution = self.cached_result(key)?;
        Some(Outcome {
            witnesses: vec![solution.vertices],
            counts: None,
            status: solution.status,
            stats: solution.stats,
            cache: CacheInfo {
                result_memo_hit: true,
                ..self.cache_info()
            },
            elapsed: t0.elapsed(),
        })
    }

    /// The one cold-solve pipeline behind every `Solve`, plain or batched:
    /// memo lookup, config resolve, budget, the cached peeling, the
    /// resident reducer, the witness seed, the observer, the search itself
    /// (sequential [`Solver`] or [`decompose::solve_decomposed`]), then
    /// witness record, metrics flush and memoization. A batch sweep passes
    /// what it learned from earlier sub-queries as `hints`; a plain solve
    /// passes [`SweepHints::default`].
    pub(crate) fn run_solve(
        &self,
        k: usize,
        budget: &Budget,
        options: &Options,
        observer: Option<Arc<dyn Observer>>,
        trace: Option<kdc_obs::Tracer>,
        hints: SweepHints,
    ) -> Result<Outcome, String> {
        let t0 = Instant::now();
        let memo_key = options.memo_preset().map(|preset| SolveKey {
            k,
            preset: preset.to_string(),
        });
        if let Some(hit) = memo_key.as_ref().and_then(|key| self.memo_outcome(key, t0)) {
            return Ok(hit);
        }
        let mut config = options.resolve()?;
        apply_budget(&mut config, budget);
        config.trace = trace;
        // Warm artifact reuse: the heuristic/decomposition phase runs on the
        // cached peeling, preprocessing resumes the resident CTCP reducer
        // for this (k, rules) pair, and the best known witness seeds the
        // lower bound so the resumed reducer state is sound.
        let peeling = self.peeling_traced(config.trace.as_ref());
        let (ctcp, ctcp_resumed) = self.ctcp_state(
            CtcpKey {
                k,
                core_rule: config.enable_rr5,
                truss_rule: config.enable_rr6,
            },
            &peeling,
            config.trace.as_ref(),
        );
        config.shared_peeling = Some(peeling);
        if let Some(floor) = hints.floor {
            lock_unpoisoned(&ctcp).tighten(floor);
        }
        config.shared_ctcp = Some(ctcp);
        let seed = hints.seed.or_else(|| self.best_known(k));
        let seeded = seed.is_some();
        config.seed_solution = seed;
        if hints.known_ub.is_some() {
            config.known_ub = hints.known_ub;
        }
        if let Some(obs) = observer {
            config.on_event = Some(EventHook::new(move |e| {
                obs.event(&Event::from_solve(e));
            }));
        }
        self.bump(SessionCounter::Solves, 1);
        let solution = if budget.threads == 1 {
            Solver::new(&self.graph, k, config).solve()
        } else {
            let threads = budget.threads.min(MAX_SOLVE_THREADS);
            decompose::solve_decomposed(&self.graph, k, config, threads)
        };
        self.record_best_known(k, &solution.vertices);
        flush_solve_metrics(
            options.preset_name(),
            &solution.stats,
            t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        );
        if solution.is_optimal() {
            if let Some(key) = memo_key {
                self.memoize_result(key, solution.clone());
            }
        }
        Ok(Outcome {
            witnesses: vec![solution.vertices],
            counts: None,
            status: solution.status,
            stats: solution.stats,
            cache: CacheInfo {
                ctcp_resumed,
                peeling_shared: true,
                seeded,
                ..self.cache_info()
            },
            elapsed: t0.elapsed(),
        })
    }

    pub(crate) fn run_top_r(
        &self,
        k: usize,
        r: usize,
        diversify: bool,
        budget: &Budget,
        options: &Options,
    ) -> Result<Outcome, String> {
        if r == 0 {
            return Err("top-r pool size must be positive".to_string());
        }
        let t0 = Instant::now();
        let mut config = options.resolve()?;
        // Enumeration must not discard solutions via a precomputed lower
        // bound, so no resident reducer and no witness seed are installed;
        // budget limits still apply (the engine honours them per run).
        apply_budget(&mut config, budget);
        let result = if diversify {
            topr::top_r_diversified_with_status(&self.graph, k, r, config)
        } else {
            topr::top_r_maximal_with_status(&self.graph, k, r, config)
        };
        Ok(Outcome {
            witnesses: result.cliques,
            counts: None,
            // Anything but Optimal means a limit or cancellation cut the
            // enumeration short: the pool may be truncated.
            status: result.status,
            stats: kdc::SearchStats::default(),
            cache: self.cache_info(),
            elapsed: t0.elapsed(),
        })
    }

    fn run_count(&self, k: usize, min_size: usize, budget: &Budget) -> Result<Outcome, String> {
        let t0 = Instant::now();
        // The counter honours cancellation and the wall clock (node limits
        // do not apply: counting has no branch-and-bound nodes). A
        // non-Optimal status means the counts are a lower bound.
        let deadline = budget.time_limit.map(|d| t0 + d);
        let (counts, status) = counting::count_k_defective_cliques_with(
            &self.graph,
            k,
            min_size,
            budget.cancel.as_ref(),
            deadline,
        );
        Ok(Outcome {
            witnesses: Vec::new(),
            counts: Some(counts),
            status,
            stats: kdc::SearchStats::default(),
            cache: self.cache_info(),
            elapsed: t0.elapsed(),
        })
    }
}

/// Removes the least-recently-used entry of a full memo. Callers count the
/// eviction.
fn evict_lru_memo(memo: &mut MemoCache) {
    let victim = memo
        .map
        .iter()
        .min_by_key(|(_, slot)| slot.last_used)
        .map(|(key, _)| key.clone());
    if let Some(key) = victim {
        memo.map.remove(&key);
    }
}

/// What a batch sweep knows beyond a plain solve (see [`crate::batch`]).
/// The default carries nothing: a plain solve.
#[derive(Default)]
pub(crate) struct SweepHints {
    /// The largest witness size other sub-queries produced, folded into
    /// the resident reducer by one [`Ctcp::tighten`] before the search.
    /// Never above the seed, so the reducer's bound stays one this solve
    /// can justify.
    pub(crate) floor: Option<usize>,
    /// A witness to seed with in place of the session's best known one.
    pub(crate) seed: Option<Vec<VertexId>>,
    /// A proven upper bound on the optimum; reaching it ends the search.
    pub(crate) known_ub: Option<usize>,
}

/// Installs a budget's limits on a config. Budget values win when present;
/// values an embedder set on an [`Options::custom`] configuration survive
/// an unlimited (default) budget instead of being silently clobbered.
fn apply_budget(config: &mut kdc::SolverConfig, budget: &Budget) {
    if budget.time_limit.is_some() {
        config.time_limit = budget.time_limit;
    }
    if budget.node_limit.is_some() {
        config.node_limit = budget.node_limit;
    }
    if budget.cancel.is_some() {
        config.cancel = budget.cancel.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdc::Status;
    use kdc_graph::{gen, named};

    #[test]
    fn solve_matches_direct_solver_and_memoizes() {
        let session = Session::new(named::figure2());
        let first = session.solve(2);
        assert_eq!(first.size(), 6);
        assert!(first.is_optimal());
        assert!(!first.cache.result_memo_hit);
        let second = session.solve(2);
        assert!(second.cache.result_memo_hit, "identical query hits memo");
        assert_eq!(second.witnesses, first.witnesses, "byte-identical answer");
        let c = session.counters();
        assert_eq!((c.solves, c.result_hits), (1, 1));
    }

    #[test]
    fn peeling_is_built_exactly_once() {
        let session = Session::new(named::figure2());
        assert_eq!(session.counters().peel_builds, 0, "peel must be lazy");
        let d1 = session.degeneracy();
        let d2 = session.degeneracy();
        assert_eq!(d1, d2);
        assert_eq!(session.counters().peel_builds, 1);
    }

    #[test]
    fn warm_solve_resumes_the_resident_reducer() {
        let mut rng = gen::seeded_rng(31);
        let (g, _) = gen::planted_defective_clique(200, 12, 2, 0.03, &mut rng);
        let session = Session::new(g);
        let q = Query::Solve { k: 2 };
        let b = Budget::default();
        let first = session
            .run(&q, &b, &Options::preset("kdc").unwrap())
            .unwrap();
        assert!(!first.cache.ctcp_resumed, "cold solve builds");
        // A different preset dodges the result memo but shares the same
        // (rr5, rr6) rule set, so the resident reducer is resumed.
        let second = session
            .run(&q, &b, &Options::preset("kdbb").unwrap())
            .unwrap();
        assert!(!second.cache.result_memo_hit);
        assert!(second.cache.ctcp_resumed, "warm solve must resume");
        assert!(second.cache.seeded, "witness seeds the warm solve");
        assert_eq!(second.size(), first.size());
        assert_eq!(
            second.stats.ctcp_vertex_removals, 0,
            "resumed reducer already at the fixpoint for this bound"
        );
        let c = session.counters();
        assert_eq!((c.ctcp_builds, c.ctcp_resumes), (1, 1));
        assert_eq!(
            session.best_known(2).unwrap().len(),
            first.size(),
            "witness recorded for seeding"
        );
    }

    #[test]
    fn lru_cap_evicts_least_recently_used_reducer() {
        let session = Session::new(named::figure2()).with_ctcp_capacity(2);
        // kdc (rr5+rr6), kdc at other k, then a third key: one eviction.
        session.solve(0);
        session.solve(1);
        assert_eq!(session.counters().ctcp_evictions, 0);
        session.solve(2);
        let c = session.counters();
        assert_eq!(c.ctcp_evictions, 1, "third key evicts the LRU slot");
        assert_eq!(c.ctcp_builds, 3);
        // k=0 was least recently used and is gone: re-touching it (memo
        // dodged via a different preset) rebuilds instead of resuming.
        session
            .run(
                &Query::Solve { k: 0 },
                &Budget::default(),
                &Options::preset("kdbb").unwrap(),
            )
            .unwrap();
        let c = session.counters();
        assert_eq!(c.ctcp_builds, 4, "evicted reducer must rebuild");
        assert_eq!(c.ctcp_evictions, 2);
        // k=2 stayed resident through it all.
        session
            .run(
                &Query::Solve { k: 2 },
                &Budget::default(),
                &Options::preset("kdbb").unwrap(),
            )
            .unwrap();
        assert_eq!(session.counters().ctcp_resumes, 1);
    }

    #[test]
    fn memo_lru_cap_evicts_least_recently_used_result() {
        let session = Session::new(named::figure2()).with_memo_capacity(2);
        session.solve(0);
        session.solve(1);
        assert_eq!(session.counters().memo_evictions, 0);
        session.solve(2);
        assert_eq!(
            session.counters().memo_evictions,
            1,
            "third key evicts the LRU memo entry"
        );
        // k=1 and k=2 stayed memoized; k=0 was evicted and re-solves.
        assert!(session.solve(1).cache.result_memo_hit);
        assert!(session.solve(2).cache.result_memo_hit);
        let solves_before = session.counters().solves;
        assert!(!session.solve(0).cache.result_memo_hit);
        assert_eq!(session.counters().solves, solves_before + 1);
    }

    #[test]
    fn zero_memo_capacity_disables_memoization() {
        let session = Session::new(named::figure2()).with_memo_capacity(0);
        session.solve(1);
        assert!(!session.solve(1).cache.result_memo_hit);
        let c = session.counters();
        assert_eq!(c.result_hits, 0);
        assert_eq!(c.memo_evictions, 0, "nothing cached, nothing evicted");
        assert_eq!(c.solves, 2);
    }

    #[test]
    fn export_import_state_rehydrates_a_fresh_session() {
        let session = Session::new(named::figure2());
        let original = session.solve(2);
        let state = session.export_state();
        assert_eq!(state.witnesses.len(), 1, "{state:?}");
        assert_eq!(state.memos.len(), 1, "{state:?}");

        let fresh = Session::new(named::figure2());
        assert_eq!(fresh.import_state(&state), (1, 1));
        let hit = fresh.solve(2);
        assert!(hit.cache.result_memo_hit, "recovered memo answers cached");
        assert_eq!(hit.witnesses, original.witnesses, "byte-identical answer");
        let c = fresh.counters();
        assert_eq!(c.solves, 0, "no search ran on the rehydrated session");
        assert_eq!((c.recovered_witnesses, c.recovered_memos), (1, 1));
        assert_eq!(
            fresh.best_known(2).unwrap().len(),
            original.size(),
            "recovered witness seeds the incumbent"
        );
    }

    #[test]
    fn import_state_rejects_foreign_and_malformed_entries() {
        let session = Session::new(named::figure2());
        session.solve(2);
        let state = session.export_state();

        // A graph the witness is not a clique of (edgeless) rejects it,
        // and a tiny graph rejects out-of-range ids without panicking.
        let mut rng = gen::seeded_rng(5);
        let edgeless = Session::new(gen::gnp(30, 0.0, &mut rng));
        assert_eq!(edgeless.import_state(&state), (0, 0));
        let tiny = Session::new(gen::gnp(3, 0.0, &mut rng));
        assert_eq!(tiny.import_state(&state), (0, 0));

        // Unsorted witnesses, non-optimal memos and unknown presets are
        // dropped one by one, not trusted.
        let bogus = SessionState {
            witnesses: vec![(2, vec![5, 1])],
            memos: vec![
                (
                    SolveKey {
                        k: 2,
                        preset: "kdc".to_string(),
                    },
                    Solution {
                        vertices: vec![0, 1],
                        status: Status::TimedOut,
                        stats: kdc::SearchStats::default(),
                    },
                ),
                (
                    SolveKey {
                        k: 2,
                        preset: "no_such_preset".to_string(),
                    },
                    Solution {
                        vertices: vec![0, 1],
                        status: Status::Optimal,
                        stats: kdc::SearchStats::default(),
                    },
                ),
            ],
        };
        let clean = Session::new(named::figure2());
        assert_eq!(clean.import_state(&bogus), (0, 0));
        assert_eq!(clean.counters().recovered_witnesses, 0);
    }

    #[test]
    fn zero_capacity_disables_residency() {
        let session = Session::new(named::figure2()).with_ctcp_capacity(0);
        session.solve(1);
        session
            .run(
                &Query::Solve { k: 1 },
                &Budget::default(),
                &Options::preset("kdbb").unwrap(),
            )
            .unwrap();
        let c = session.counters();
        assert_eq!(c.ctcp_builds, 2, "nothing is resident at cap 0");
        assert_eq!(c.ctcp_resumes, 0);
        assert_eq!(c.ctcp_evictions, 0);
    }

    #[test]
    fn observer_receives_incumbent_and_done_events() {
        let session = Session::new(named::figure2());
        let events: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        let observer: Arc<dyn Observer> = Arc::new(move |e: &Event| {
            sink.lock().unwrap().push(*e);
        });
        let outcome = session
            .run_with(
                &Query::Solve { k: 2 },
                &Budget::default(),
                &Options::default(),
                Some(observer),
            )
            .unwrap();
        assert!(outcome.is_optimal());
        let events = events.lock().unwrap();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Incumbent { size } if *size >= 5)),
            "at least one incumbent event expected: {events:?}"
        );
        assert!(
            matches!(
                events.last(),
                Some(Event::Done {
                    status: Status::Optimal
                })
            ),
            "stream must end with Done: {events:?}"
        );
    }

    #[test]
    fn enumerate_and_topr_match_direct_calls() {
        let g = named::figure2();
        let session = Session::new(g.clone());
        let direct = topr::top_r_maximal(&g, 1, 2, kdc::SolverConfig::kdc());
        let outcome = session
            .run(
                &Query::TopR {
                    k: 1,
                    r: 2,
                    diversify: false,
                },
                &Budget::default(),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(outcome.witnesses, direct);
        assert!(outcome.is_optimal());
        let all = session
            .run(
                &Query::Enumerate { k: 1 },
                &Budget::default(),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(
            all.witnesses,
            topr::enumerate_maximal(&g, 1, kdc::SolverConfig::kdc())
        );
        assert!(
            session
                .run(
                    &Query::TopR {
                        k: 1,
                        r: 0,
                        diversify: false
                    },
                    &Budget::default(),
                    &Options::default(),
                )
                .is_err(),
            "r = 0 must be rejected, not assert"
        );
    }

    #[test]
    fn count_matches_direct_counter() {
        let g = named::figure2();
        let session = Session::new(g.clone());
        let outcome = session
            .run(
                &Query::Count { k: 1, min_size: 5 },
                &Budget::default(),
                &Options::default(),
            )
            .unwrap();
        let direct = counting::count_k_defective_cliques(&g, 1, 5);
        assert_eq!(outcome.counts.unwrap(), direct);
        assert!(outcome.witnesses.is_empty());
    }

    #[test]
    fn budget_limits_and_cancellation_flow_through() {
        let mut rng = gen::seeded_rng(42);
        let g = gen::gnp(120, 0.5, &mut rng);
        let session = Session::new(g);
        // Node limit: best-effort status.
        let outcome = session
            .run(
                &Query::Solve { k: 8 },
                &Budget::default().with_node_limit(1),
                &Options::preset("kdc_t").unwrap(),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::NodeLimitReached);
        // Pre-raised cancel flag: the search aborts immediately.
        let flag = kdc::CancelFlag::new();
        flag.cancel();
        let outcome = session
            .run(
                &Query::Solve { k: 8 },
                &Budget::default().with_cancel(flag),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::Cancelled);
    }

    #[test]
    fn budget_interrupts_enumeration_and_counting() {
        let mut rng = gen::seeded_rng(99);
        let g = gen::gnp(40, 0.5, &mut rng);
        let session = Session::new(g);
        // Pre-raised cancel: the enumeration must not claim a complete pool.
        let flag = kdc::CancelFlag::new();
        flag.cancel();
        let outcome = session
            .run(
                &Query::Enumerate { k: 2 },
                &Budget::default().with_cancel(flag.clone()),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::Cancelled);
        // Same for counting: a cancelled count is a lower bound, not an
        // answer — and the worker is released promptly.
        let outcome = session
            .run(
                &Query::Count { k: 2, min_size: 0 },
                &Budget::default().with_cancel(flag),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::Cancelled);
        // An already-expired deadline times the count out.
        let outcome = session
            .run(
                &Query::Count { k: 2, min_size: 0 },
                &Budget::default().with_time_limit(std::time::Duration::ZERO),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::TimedOut);
    }

    #[test]
    fn enumeration_with_a_node_limit_is_not_reported_complete() {
        let mut rng = gen::seeded_rng(98);
        let g = gen::gnp(40, 0.5, &mut rng);
        let session = Session::new(g);
        let outcome = session
            .run(
                &Query::Enumerate { k: 2 },
                &Budget::default().with_node_limit(1),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::NodeLimitReached);
    }

    #[test]
    fn custom_config_limits_survive_a_default_budget() {
        let mut rng = gen::seeded_rng(97);
        let g = gen::gnp(60, 0.5, &mut rng);
        let session = Session::new(g);
        // A cancel flag installed on the custom config itself — with no
        // budget-level flag — must still abort the solve.
        let flag = kdc::CancelFlag::new();
        flag.cancel();
        let outcome = session
            .run(
                &Query::Solve { k: 4 },
                &Budget::default(),
                &Options::custom(kdc::SolverConfig::kdc().with_cancel(flag)),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::Cancelled);
        // Same for a config-level node limit.
        let outcome = session
            .run(
                &Query::Solve { k: 4 },
                &Budget::default(),
                &Options::custom(kdc::SolverConfig::kdc_t().with_node_limit(1)),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::NodeLimitReached);
        // A budget-level limit still wins over the config's.
        let outcome = session
            .run(
                &Query::Solve { k: 4 },
                &Budget::default().with_node_limit(1),
                &Options::custom(kdc::SolverConfig::kdc_t().with_node_limit(u64::MAX)),
            )
            .unwrap();
        assert_eq!(outcome.status, Status::NodeLimitReached);
    }

    #[test]
    fn threaded_budget_uses_the_decomposition() {
        let mut rng = gen::seeded_rng(7);
        let (g, _) = gen::planted_defective_clique(300, 14, 2, 0.03, &mut rng);
        let session = Session::new(g.clone());
        let sequential = session.solve(2);
        let threaded = session
            .run(
                &Query::Solve { k: 2 },
                &Budget::default().with_threads(2),
                &Options::preset("kdbb").unwrap(), // dodge the memo
            )
            .unwrap();
        assert_eq!(threaded.size(), sequential.size());
        assert!(threaded.is_optimal());
        // Fully warm (seeded at the optimum): every ego instance may be
        // skipped, so only the answer itself is asserted here.
        assert!(g.is_k_defective_clique(threaded.best().unwrap(), 2));
    }

    #[test]
    fn lock_unpoisoned_recovers_the_inner_value() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let poisoner = std::sync::Arc::clone(&m);
        // kdc-lint: allow(no_panic) — deliberately poisoning the mutex.
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(m.lock().is_err(), "mutex must be poisoned");
        assert_eq!(*lock_unpoisoned(&m), 7, "value survives the poison");
        *lock_unpoisoned(&m) = 8;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn observed_run_records_spans_and_registry_twins() {
        let session = Session::new(named::figure2());
        let trace = kdc_obs::Tracer::new();
        let outcome = session
            .run_observed(
                &Query::Solve { k: 2 },
                &Budget::default(),
                &Options::default(),
                None,
                Some(trace.clone()),
            )
            .unwrap();
        assert!(outcome.is_optimal());
        let phases: Vec<&str> = trace.summary().iter().map(|p| p.name).collect();
        assert!(phases.contains(&"peel"), "phases recorded: {phases:?}");
        assert!(
            phases.contains(&"heuristic"),
            "the heuristic has its own span: {phases:?}"
        );
        assert!(
            phases.contains(&"ctcp_build"),
            "a cold solve traces its reducer build: {phases:?}"
        );
        assert!(
            phases.contains(&"peel_build"),
            "a cold solve traces its peel: {phases:?}"
        );
        // A resumed reducer and the cached peeling are not rebuilt, so they
        // record no build span. A custom config with the same rules
        // bypasses the result memo and resumes the reducer the first solve
        // built.
        let resumed_trace = kdc_obs::Tracer::new();
        let resumed = session
            .run_observed(
                &Query::Solve { k: 2 },
                &Budget::default(),
                &Options::custom(kdc::SolverConfig::kdc()),
                None,
                Some(resumed_trace.clone()),
            )
            .unwrap();
        assert!(resumed.cache.ctcp_resumed);
        let phases: Vec<&str> = resumed_trace.summary().iter().map(|p| p.name).collect();
        assert!(phases.contains(&"peel"), "phases recorded: {phases:?}");
        assert!(
            !phases.contains(&"ctcp_build") && !phases.contains(&"peel_build"),
            "phases recorded: {phases:?}"
        );
        // The registry is process-global and shared with concurrently
        // running tests, so only presence (not exact values) is asserted.
        let text = kdc_obs::registry().render_prometheus();
        assert!(text.contains("kdc_session_solves_total"), "{text}");
        assert!(
            text.contains("kdc_session_nodes_total{preset=\"kdc\"}"),
            "{text}"
        );
        assert!(
            text.contains("kdc_core_bound_invocations_total{bound=\"ub3\"}"),
            "{text}"
        );
        assert!(
            text.contains("kdc_session_solve_duration_ns_count"),
            "{text}"
        );
    }

    #[test]
    fn run_with_still_solves_without_a_tracer() {
        let session = Session::new(named::figure2());
        let outcome = session
            .run_with(
                &Query::Solve { k: 2 },
                &Budget::default(),
                &Options::default(),
                None,
            )
            .unwrap();
        assert_eq!(outcome.size(), 6);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn session_survives_a_panicking_run() {
        // The daemon-side contract, proven at the API layer: a run that
        // panics (fault-injection preset) leaves the session fully usable.
        let session = Session::new(named::figure2());
        let q = Query::Solve { k: 2 };
        let b = Budget::default();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run(
                &q,
                &b,
                &Options::preset(crate::query::PANIC_PRESET).unwrap(),
            )
        }));
        assert!(boom.is_err(), "fault-injection preset must panic");
        let after = session
            .run(&q, &b, &Options::preset("kdc").unwrap())
            .unwrap();
        assert_eq!(after.size(), 6);
        assert!(after.is_optimal());
    }
}
