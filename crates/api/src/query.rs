//! The typed request/response model: what to compute ([`Query`]), how much
//! to spend ([`Budget`]), which algorithm variant ([`Options`]), and what
//! came back ([`Outcome`]) — plus the [`Observer`] callback surface that
//! streams [`Event`]s while a query runs.

use kdc::counting::DefectiveCounts;
use kdc::{CancelFlag, SearchStats, SolverConfig, Status};
use kdc_graph::VertexId;
use std::time::Duration;

/// What a [`crate::Session`] should compute.
///
/// Not `Copy`: the [`Query::Batch`] variant owns its sub-query list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// The exact maximum k-defective clique.
    Solve {
        /// The k of the k-defective clique.
        k: usize,
    },
    /// Every maximal k-defective clique, size-descending. Exponential output
    /// is possible; prefer [`Query::TopR`] on anything but small graphs.
    Enumerate {
        /// The k of the k-defective clique.
        k: usize,
    },
    /// The `r` largest maximal k-defective cliques, or — with `diversify` —
    /// `r` cliques chosen to cover many distinct vertices (the greedy
    /// peel-and-solve scheme with its `(1 − 1/e)` coverage guarantee).
    TopR {
        /// The k of the k-defective clique.
        k: usize,
        /// Pool size r (must be positive).
        r: usize,
        /// Vertex-coverage diversification instead of plain top-r-by-size.
        diversify: bool,
    },
    /// Exact per-size counts of k-defective cliques with at least
    /// `min_size` vertices (`#P`-hard in general; keep `min_size` close to
    /// the maximum on non-toy graphs).
    Count {
        /// The k of the k-defective clique.
        k: usize,
        /// Smallest size to count.
        min_size: usize,
    },
    /// A batch of sub-queries answered in one planned pass: the
    /// [`crate::BatchPlan`] groups them by preset/rule set, sweeps each
    /// group's k values ascending so every optimum witness seeds (and its
    /// adjacent-k bound caps) the next solve, tightens each reducer to the
    /// batch's best lower bound and fans duplicate sub-queries out
    /// from a single execution. Per-sub-query answers stream through the
    /// observer as [`Event::SubDone`]; run a batch via
    /// [`crate::Session::run_batch`] to get the full
    /// [`crate::BatchOutcome`] instead of the folded [`Outcome`].
    Batch(Vec<crate::SubQuery>),
}

impl Query {
    /// The largest `k` the query touches (0 for an empty batch).
    pub fn k(&self) -> usize {
        match self {
            Query::Solve { k }
            | Query::Enumerate { k }
            | Query::TopR { k, .. }
            | Query::Count { k, .. } => *k,
            Query::Batch(subs) => subs.iter().map(|s| s.k).max().unwrap_or(0),
        }
    }
}

/// Resource limits for one query: wall clock, search nodes, threads and a
/// cooperative cancellation flag. The default budget is unlimited and
/// sequential.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Wall-clock limit; on expiry the best-effort answer is returned with
    /// [`Status::TimedOut`].
    pub time_limit: Option<Duration>,
    /// Branch-and-bound node limit ([`Status::NodeLimitReached`] on hit).
    pub node_limit: Option<u64>,
    /// Solver threads: `1` = sequential, `0` = all cores, `N` = N-thread
    /// ego decomposition. Clamped server-side to a sane maximum.
    pub threads: usize,
    /// Cooperative cancellation: raise the flag from any thread and the
    /// search aborts at its next node with [`Status::Cancelled`].
    pub cancel: Option<CancelFlag>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            time_limit: None,
            node_limit: None,
            threads: 1,
            cancel: None,
        }
    }
}

impl Budget {
    /// No limits, sequential search.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Builder-style wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Builder-style node limit.
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Builder-style thread count (see [`Budget::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style cancellation flag.
    pub fn with_cancel(mut self, cancel: CancelFlag) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// Algorithm selection for a query: a named preset (memoizable) or an
/// explicit [`SolverConfig`] (never memoized — an arbitrary config is not a
/// cache key).
#[derive(Clone, Debug)]
pub struct Options {
    preset: String,
    custom: Option<SolverConfig>,
}

impl Default for Options {
    /// The paper's flagship `kdc` preset.
    fn default() -> Self {
        Options {
            preset: "kdc".to_string(),
            custom: None,
        }
    }
}

impl Options {
    /// A named preset, validated against the system-wide preset table
    /// ([`SolverConfig::from_preset`]) so a typo fails here, not mid-job.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown preset (and listing the known
    /// ones) when `name` is not in the preset table.
    pub fn preset(name: &str) -> Result<Self, String> {
        #[cfg(debug_assertions)]
        if name == PANIC_PRESET {
            // Accepted here, detonated in `resolve()`: fault injection for
            // the daemon's panic-isolation e2e test (debug builds only).
            return Ok(Options {
                preset: name.to_string(),
                custom: None,
            });
        }
        SolverConfig::from_preset(name)?;
        Ok(Options {
            preset: name.to_string(),
            custom: None,
        })
    }

    /// An explicit configuration (ablations, experiments). Results computed
    /// under a custom config are exact but bypass the proven-optimal memo.
    /// Limits already set on the config (`time_limit`, `node_limit`,
    /// `cancel`) are kept unless the query's [`Budget`] provides its own.
    pub fn custom(config: SolverConfig) -> Self {
        Options {
            preset: "custom".to_string(),
            custom: Some(config),
        }
    }

    /// The preset name (`"custom"` for explicit configs).
    pub fn preset_name(&self) -> &str {
        &self.preset
    }

    /// The memo key for proven-optimal result caching, if this options
    /// object is memoizable (named presets only).
    pub(crate) fn memo_preset(&self) -> Option<&str> {
        self.custom.is_none().then_some(self.preset.as_str())
    }

    /// Resolves to a concrete solver configuration.
    ///
    /// # Errors
    ///
    /// Fails when the stored preset name is unknown to
    /// [`SolverConfig::from_preset`] (possible only for an `Options`
    /// deserialized or constructed outside [`Options::preset`]).
    pub fn resolve(&self) -> Result<SolverConfig, String> {
        #[cfg(debug_assertions)]
        if self.preset == PANIC_PRESET {
            // kdc-lint: allow(no_panic) — deliberate fault injection; the
            // worker's catch_unwind must turn this into an ERR reply.
            panic!("fault injection: preset {PANIC_PRESET} requested");
        }
        match &self.custom {
            Some(config) => Ok(config.clone()),
            None => SolverConfig::from_preset(&self.preset),
        }
    }
}

/// Debug-only fault-injection preset: accepted by [`Options::preset`],
/// panics inside [`Options::resolve`]. Exists so the daemon's e2e suite
/// can prove a panicking job yields an ERR reply while the worker pool
/// keeps serving. Not a real preset; unknown in release builds.
#[cfg(debug_assertions)]
pub const PANIC_PRESET: &str = "__panic";

/// A progress event streamed to an [`Observer`] while a query runs. Events
/// arrive synchronously on the solving thread(s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// The best known solution improved to `size` vertices (the first such
    /// event of a solve reports the initial heuristic/seed bound).
    Incumbent {
        /// Size of the new incumbent.
        size: usize,
    },
    /// The CTCP reducer re-tightened against a risen bound.
    Retighten {
        /// Vertices removed by this tightening step.
        vertices: u64,
        /// Edges removed by this tightening step.
        edges: u64,
    },
    /// Branch and bound (re)started on a universe of `universe` vertices.
    Restart {
        /// Vertex count of the universe being searched.
        universe: usize,
    },
    /// One sub-query of a [`Query::Batch`] finished (batch runs only).
    /// Streamed in completion order — the planner's sweep order, not the
    /// caller's input order — with every duplicate of a deduplicated
    /// sub-query reported under its own `index`.
    SubDone {
        /// Position of the sub-query in the caller's input list.
        index: usize,
        /// The k of the finished sub-query.
        k: usize,
        /// Size of the sub-query's primary witness (0 when none).
        size: usize,
        /// Termination status of the sub-query.
        status: Status,
    },
    /// The query finished; the final [`Outcome`] carries `status`.
    Done {
        /// Termination status of the query.
        status: Status,
    },
}

impl Event {
    pub(crate) fn from_solve(event: kdc::SolveEvent) -> Event {
        match event {
            kdc::SolveEvent::Incumbent { size } => Event::Incumbent { size },
            kdc::SolveEvent::Retighten { vertices, edges } => Event::Retighten { vertices, edges },
            kdc::SolveEvent::Restart { universe } => Event::Restart { universe },
        }
    }
}

/// Receives [`Event`]s during a query. Implemented for any
/// `Fn(&Event) + Send + Sync` closure, so
/// `session.run_with(q, b, o, Some(Arc::new(|e: &Event| ...)))` just works.
pub trait Observer: Send + Sync {
    /// Called once per event, in emission order.
    fn event(&self, event: &Event);
}

impl<F: Fn(&Event) + Send + Sync> Observer for F {
    fn event(&self, event: &Event) {
        self(event)
    }
}

/// Where a query's answer came from and which resident artifacts it reused
/// — the session-level provenance counters that make warm-path claims
/// assertable instead of inferred from timings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheInfo {
    /// The proven-optimal result memo answered without searching.
    pub result_memo_hit: bool,
    /// The solve resumed a resident CTCP reducer instead of building one.
    pub ctcp_resumed: bool,
    /// The solve installed the session's cached degeneracy peeling.
    pub peeling_shared: bool,
    /// A stored best-known witness seeded the initial lower bound.
    pub seeded: bool,
    /// Session-lifetime count of reducers evicted from the bounded LRU
    /// cache, sampled when the query finished.
    pub ctcp_evictions: u64,
}

/// The unified answer to any [`Query`].
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Witness solutions: exactly one for `Solve`, the pool for
    /// `Enumerate`/`TopR`, empty for `Count`. Vertex lists are sorted
    /// ascending in original graph ids.
    pub witnesses: Vec<Vec<VertexId>>,
    /// Per-size counts (`Count` queries only).
    pub counts: Option<DefectiveCounts>,
    /// Termination status. For enumeration queries, [`Status::Cancelled`]
    /// means the pool may be truncated and must not be read as complete.
    pub status: Status,
    /// Search statistics (zeroed for queries that bypass the search, e.g. a
    /// memo hit reports the stats of the original search).
    pub stats: SearchStats,
    /// Cache provenance (see [`CacheInfo`]).
    pub cache: CacheInfo,
    /// Wall-clock time this query took inside the session.
    pub elapsed: Duration,
}

impl Outcome {
    /// The primary witness (the solution for `Solve`, the largest pool
    /// entry otherwise), if any.
    pub fn best(&self) -> Option<&[VertexId]> {
        self.witnesses.first().map(Vec::as_slice)
    }

    /// Size of the primary witness (0 when there is none).
    pub fn size(&self) -> usize {
        self.best().map_or(0, <[VertexId]>::len)
    }

    /// Whether the answer is proven exact/complete.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_k_accessor() {
        assert_eq!(Query::Solve { k: 2 }.k(), 2);
        assert_eq!(Query::Enumerate { k: 1 }.k(), 1);
        assert_eq!(
            Query::TopR {
                k: 3,
                r: 5,
                diversify: true
            }
            .k(),
            3
        );
        assert_eq!(Query::Count { k: 0, min_size: 4 }.k(), 0);
    }

    #[test]
    fn budget_defaults_are_sequential_and_unlimited() {
        let b = Budget::default();
        assert_eq!(b.threads, 1);
        assert!(b.time_limit.is_none() && b.node_limit.is_none() && b.cancel.is_none());
        let b = Budget::unlimited()
            .with_time_limit(Duration::from_secs(1))
            .with_node_limit(10)
            .with_threads(4);
        assert_eq!(b.threads, 4);
        assert_eq!(b.node_limit, Some(10));
    }

    #[test]
    fn options_validate_presets_eagerly() {
        assert!(Options::preset("kdc").is_ok());
        assert!(Options::preset("nope").is_err(), "typo must fail fast");
        assert_eq!(Options::default().memo_preset(), Some("kdc"));
        let custom = Options::custom(SolverConfig::kdc_t());
        assert_eq!(custom.memo_preset(), None, "custom configs never memoize");
        assert_eq!(custom.preset_name(), "custom");
        assert!(custom.resolve().is_ok());
    }

    #[test]
    fn outcome_accessors() {
        let o = Outcome {
            witnesses: vec![vec![1, 2, 3]],
            counts: None,
            status: Status::Optimal,
            stats: SearchStats::default(),
            cache: CacheInfo::default(),
            elapsed: Duration::ZERO,
        };
        assert_eq!(o.size(), 3);
        assert!(o.is_optimal());
        assert_eq!(o.best().unwrap(), &[1, 2, 3]);
    }
}
