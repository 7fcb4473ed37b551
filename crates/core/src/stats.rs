//! Solver results and search statistics.

use kdc_graph::VertexId;
use std::time::Duration;

/// Termination status of a solve.
///
/// Variants are ordered by severity (`Optimal` < `NodeLimitReached` <
/// `TimedOut` < `Cancelled`), so `max` folds the statuses of several runs
/// into one that is `Optimal` only when every run was.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// The returned solution is a maximum k-defective clique.
    Optimal,
    /// The node limit was reached; the returned solution is the best found.
    NodeLimitReached,
    /// The wall-clock limit expired; the returned solution is the best found.
    TimedOut,
    /// The solve was cancelled via [`crate::config::CancelFlag`]; the
    /// returned solution is the best found before cancellation.
    Cancelled,
}

impl Status {
    /// The stable wire/storage token for this status (also used by the
    /// daemon protocol and the durable store).
    pub fn as_token(self) -> &'static str {
        match self {
            Status::Optimal => "optimal",
            Status::TimedOut => "timeout",
            Status::NodeLimitReached => "node-limit",
            Status::Cancelled => "cancelled",
        }
    }

    /// Parses a token produced by [`Status::as_token`].
    ///
    /// # Errors
    /// Returns the list of valid tokens when `s` is not one of them.
    pub fn parse_token(s: &str) -> Result<Status, String> {
        match s {
            "optimal" => Ok(Status::Optimal),
            "timeout" => Ok(Status::TimedOut),
            "node-limit" => Ok(Status::NodeLimitReached),
            "cancelled" => Ok(Status::Cancelled),
            other => Err(format!(
                "unknown status token {other:?} (optimal | timeout | node-limit | cancelled)"
            )),
        }
    }
}

/// A solve result: the best k-defective clique found plus bookkeeping.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Vertices of the solution, in original graph ids, sorted ascending.
    pub vertices: Vec<VertexId>,
    /// Whether the solution is proven optimal.
    pub status: Status,
    /// Search statistics.
    pub stats: SearchStats,
}

impl Solution {
    /// Number of vertices in the solution.
    pub fn size(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the solve ran to proven optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }
}

/// Indices into [`SearchStats::bound_costs`], in evaluation order of
/// the engine's candidate-set upper bounds.
pub mod bound {
    /// UB3 — non-neighbour-prefix bound (evaluated first, early exit).
    pub const UB3: usize = 0;
    /// UB1 / Eq. (2) — colouring bound.
    pub const UB1: usize = 1;
    /// KD-Club-style per-node re-colouring bound.
    pub const KDCLUB: usize = 2;
    /// Number of tracked bounds.
    pub const COUNT: usize = 3;
    /// Metric-label names, indexed like [`SearchStats::bound_costs`].
    ///
    /// [`SearchStats::bound_costs`]: crate::SearchStats
    pub const NAMES: [&str; COUNT] = ["ub3", "ub1", "kdclub"];
}

/// Per-bound telemetry: how often a bound ran, how often it was the bound
/// that closed the instance, and what it cost. `ns` is only accumulated
/// while `kdc_obs` observability is enabled (the clock reads are skipped
/// otherwise); invocation and prune counts are always maintained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundCost {
    /// Times the bound was evaluated.
    pub invocations: u64,
    /// Times this bound was the one that pruned the instance.
    pub prunes: u64,
    /// Cumulative evaluation time in nanoseconds (0 when observability is
    /// disabled).
    pub ns: u64,
}

/// Counters describing a branch-and-bound run. All counters are best-effort
/// and intended for experiments/ablations, not for control flow.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Branch-and-bound nodes visited (instances of `Branch&Bound`).
    pub nodes: u64,
    /// Leaf nodes (instances solved by the k-defective-leaf rule).
    pub leaves: u64,
    /// Maximum recursion depth reached.
    pub max_depth: usize,
    /// Vertices removed by RR1 (excess-removal).
    pub rr1_removals: u64,
    /// Vertices greedily added to S by RR2 (high-degree).
    pub rr2_additions: u64,
    /// Vertices removed by RR3 (degree-sequence).
    pub rr3_removals: u64,
    /// Vertices removed by RR4 (second-order).
    pub rr4_removals: u64,
    /// Vertices removed by RR5 (core rule) inside the search.
    pub rr5_removals: u64,
    /// Instances pruned because an upper bound was ≤ lb.
    pub bound_prunes: u64,
    /// Instances pruned by UB1 specifically (UB1 was the smallest bound).
    pub ub1_prunes: u64,
    /// Instances pruned by the KD-Club-style colouring bound specifically:
    /// UB3 and UB1 failed to prune and the per-node re-colouring bound was the
    /// one that closed the instance.
    pub kdclub_prunes: u64,
    /// Instances pruned while applying RR5 to a vertex of S.
    pub s_vertex_prunes: u64,
    /// Per-bound invocation/prune/cost telemetry, indexed by the constants
    /// in [`bound`]. Supersedes nothing: `bound_prunes`, `ub1_prunes` and
    /// `kdclub_prunes` keep their historical meaning.
    pub bound_costs: [BoundCost; bound::COUNT],
    /// Size of the initial heuristic solution (|C0|).
    pub initial_solution_size: usize,
    /// Vertices of the reduced graph after preprocessing (n0).
    pub preprocessed_n: usize,
    /// Edges of the reduced graph after preprocessing (m0).
    pub preprocessed_m: usize,
    /// Vertices removed by the incremental CTCP reducer (RR5/RR6 against
    /// the rising lower bound, preprocessing *and* mid-search re-tightens).
    pub ctcp_vertex_removals: u64,
    /// Edges removed by the incremental CTCP reducer.
    pub ctcp_edge_removals: u64,
    /// Ego subproblems primed by re-using an existing arena (long-lived
    /// engine + flat buffers) instead of allocating a fresh universe.
    pub arena_reuses: u64,
    /// Full universe (re)builds: relabelled adjacency extracted from
    /// scratch. The warm paths keep this at one per solve.
    pub universe_rebuilds: u64,
    /// Ego subproblems actually searched by the decomposition (skipped
    /// too-small universes excluded).
    pub ego_subproblems: u64,
    /// Wall-clock time of the heuristic + preprocessing phase.
    pub preprocess_time: Duration,
    /// Wall-clock time of the branch-and-bound phase.
    pub search_time: Duration,
}

impl SearchStats {
    /// Total solve time (preprocessing + search).
    pub fn total_time(&self) -> Duration {
        self.preprocess_time + self.search_time
    }

    /// Folds the counters of another run into this one (restart loops and
    /// per-worker aggregation): counts add, depths max, sizes and times of
    /// `other` are ignored.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.leaves += other.leaves;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.rr1_removals += other.rr1_removals;
        self.rr2_additions += other.rr2_additions;
        self.rr3_removals += other.rr3_removals;
        self.rr4_removals += other.rr4_removals;
        self.rr5_removals += other.rr5_removals;
        self.bound_prunes += other.bound_prunes;
        self.ub1_prunes += other.ub1_prunes;
        self.kdclub_prunes += other.kdclub_prunes;
        self.s_vertex_prunes += other.s_vertex_prunes;
        for (mine, theirs) in self.bound_costs.iter_mut().zip(&other.bound_costs) {
            mine.invocations += theirs.invocations;
            mine.prunes += theirs.prunes;
            mine.ns += theirs.ns;
        }
        self.ctcp_vertex_removals += other.ctcp_vertex_removals;
        self.ctcp_edge_removals += other.ctcp_edge_removals;
        self.arena_reuses += other.arena_reuses;
        self.universe_rebuilds += other.universe_rebuilds;
        self.ego_subproblems += other.ego_subproblems;
    }

    /// Serializes the counters as one compact `key=value` line (durations
    /// as nanoseconds, per-bound telemetry as `bc_<name>=inv:prunes:ns`
    /// with the names of [`bound::NAMES`]) — the opaque stats string the
    /// durable store journals alongside a memo. Keying by name keeps a
    /// record attributed correctly when the bound list changes.
    pub fn encode_compact(&self) -> String {
        let mut s = format!(
            "nodes={} leaves={} max_depth={} rr1={} rr2={} rr3={} rr4={} rr5={} \
             bound_prunes={} ub1_prunes={} kdclub_prunes={} s_vertex_prunes={} \
             init_size={} pre_n={} pre_m={} ctcp_v={} ctcp_e={} arena={} \
             rebuilds={} ego={} pre_ns={} search_ns={}",
            self.nodes,
            self.leaves,
            self.max_depth,
            self.rr1_removals,
            self.rr2_additions,
            self.rr3_removals,
            self.rr4_removals,
            self.rr5_removals,
            self.bound_prunes,
            self.ub1_prunes,
            self.kdclub_prunes,
            self.s_vertex_prunes,
            self.initial_solution_size,
            self.preprocessed_n,
            self.preprocessed_m,
            self.ctcp_vertex_removals,
            self.ctcp_edge_removals,
            self.arena_reuses,
            self.universe_rebuilds,
            self.ego_subproblems,
            self.preprocess_time.as_nanos(),
            self.search_time.as_nanos(),
        );
        for (name, bc) in bound::NAMES.iter().zip(&self.bound_costs) {
            s.push_str(&format!(
                " bc_{name}={}:{}:{}",
                bc.invocations, bc.prunes, bc.ns
            ));
        }
        s
    }

    /// Parses a line produced by [`SearchStats::encode_compact`]. Tolerant
    /// by design: unknown keys are ignored and missing keys default to
    /// zero, so records written by one version replay under another. That
    /// includes the positional `bc<i>=` keys of records written before the
    /// bound telemetry was keyed by name: their indices named a different
    /// bound list, so their counts are dropped rather than misattributed.
    ///
    /// # Errors
    /// Only a syntactically broken field (`key=value` with a non-numeric
    /// value) is an error.
    pub fn decode_compact(s: &str) -> Result<SearchStats, String> {
        let mut out = SearchStats::default();
        for field in s.split_whitespace() {
            let Some((key, value)) = field.split_once('=') else {
                return Err(format!("stats field {field:?} is not key=value"));
            };
            let num = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("bad numeric value {v:?} for stats key {key:?}"))
            };
            match key {
                "nodes" => out.nodes = num(value)?,
                "leaves" => out.leaves = num(value)?,
                "max_depth" => out.max_depth = num(value)? as usize,
                "rr1" => out.rr1_removals = num(value)?,
                "rr2" => out.rr2_additions = num(value)?,
                "rr3" => out.rr3_removals = num(value)?,
                "rr4" => out.rr4_removals = num(value)?,
                "rr5" => out.rr5_removals = num(value)?,
                "bound_prunes" => out.bound_prunes = num(value)?,
                "ub1_prunes" => out.ub1_prunes = num(value)?,
                "kdclub_prunes" => out.kdclub_prunes = num(value)?,
                "s_vertex_prunes" => out.s_vertex_prunes = num(value)?,
                "init_size" => out.initial_solution_size = num(value)? as usize,
                "pre_n" => out.preprocessed_n = num(value)? as usize,
                "pre_m" => out.preprocessed_m = num(value)? as usize,
                "ctcp_v" => out.ctcp_vertex_removals = num(value)?,
                "ctcp_e" => out.ctcp_edge_removals = num(value)?,
                "arena" => out.arena_reuses = num(value)?,
                "rebuilds" => out.universe_rebuilds = num(value)?,
                "ego" => out.ego_subproblems = num(value)?,
                "pre_ns" => out.preprocess_time = Duration::from_nanos(num(value)?),
                "search_ns" => out.search_time = Duration::from_nanos(num(value)?),
                _ if key.starts_with("bc_") => {
                    let Some(i) = bound::NAMES.iter().position(|&b| b == &key[3..]) else {
                        continue;
                    };
                    let mut parts = value.splitn(3, ':');
                    let mut next = || num(parts.next().unwrap_or("0"));
                    out.bound_costs[i].invocations = next()?;
                    out.bound_costs[i].prunes = next()?;
                    out.bound_costs[i].ns = next()?;
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_accessors() {
        let s = Solution {
            vertices: vec![1, 4, 9],
            status: Status::Optimal,
            stats: SearchStats::default(),
        };
        assert_eq!(s.size(), 3);
        assert!(s.is_optimal());
        let t = Solution {
            status: Status::TimedOut,
            ..s
        };
        assert!(!t.is_optimal());
    }

    #[test]
    fn status_tokens_roundtrip() {
        for status in [
            Status::Optimal,
            Status::TimedOut,
            Status::NodeLimitReached,
            Status::Cancelled,
        ] {
            assert_eq!(Status::parse_token(status.as_token()).unwrap(), status);
        }
        assert!(Status::parse_token("done").is_err());
    }

    #[test]
    fn status_max_is_the_most_severe() {
        use Status::*;
        let by_severity = [Optimal, NodeLimitReached, TimedOut, Cancelled];
        for (i, &a) in by_severity.iter().enumerate() {
            for (j, &b) in by_severity.iter().enumerate() {
                assert_eq!(a.max(b), by_severity[i.max(j)], "{a:?} vs {b:?}");
            }
        }
    }

    /// Every scalar field set to a distinct value, no bound telemetry.
    fn sample() -> SearchStats {
        SearchStats {
            nodes: 42,
            leaves: 7,
            max_depth: 9,
            rr1_removals: 1,
            rr2_additions: 2,
            rr3_removals: 3,
            rr4_removals: 4,
            rr5_removals: 5,
            bound_prunes: 6,
            ub1_prunes: 7,
            kdclub_prunes: 8,
            s_vertex_prunes: 9,
            initial_solution_size: 10,
            preprocessed_n: 11,
            preprocessed_m: 12,
            ctcp_vertex_removals: 13,
            ctcp_edge_removals: 14,
            arena_reuses: 15,
            universe_rebuilds: 16,
            ego_subproblems: 17,
            preprocess_time: Duration::from_nanos(123_456),
            search_time: Duration::from_nanos(789_012),
            ..Default::default()
        }
    }

    #[test]
    fn stats_encode_decode_roundtrips() {
        let mut stats = sample();
        stats.bound_costs[bound::UB1] = BoundCost {
            invocations: 100,
            prunes: 40,
            ns: 5_000,
        };
        let line = stats.encode_compact();
        let back = SearchStats::decode_compact(&line).unwrap();
        assert_eq!(back.encode_compact(), line);
        assert_eq!(back.nodes, 42);
        assert_eq!(back.bound_costs[bound::UB1].prunes, 40);
        assert_eq!(back.search_time, Duration::from_nanos(789_012));
        assert!(line.contains(" bc_ub1=100:40:5000"), "{line}");
    }

    #[test]
    fn positional_bound_keys_of_older_records_are_ignored() {
        // A line as written when `bc<i>` indexed the five-bound list
        // [ub2, ub3, ub1, kdclub, ub4]: its counts name other bounds now.
        let legacy = "nodes=42 leaves=7 max_depth=9 rr1=1 rr2=2 rr3=3 rr4=4 rr5=5 \
                      bound_prunes=6 ub1_prunes=7 kdclub_prunes=8 s_vertex_prunes=9 \
                      init_size=10 pre_n=11 pre_m=12 ctcp_v=13 ctcp_e=14 arena=15 \
                      rebuilds=16 ego=17 pre_ns=123456 search_ns=789012 \
                      bc0=900:0:1000 bc1=900:600:2000 bc2=300:250:3000 bc3=50:20:4000 bc4=0:0:0";
        let back = SearchStats::decode_compact(legacy).unwrap();
        assert_eq!(back.bound_costs, [BoundCost::default(); bound::COUNT]);
        assert_eq!(back.encode_compact(), sample().encode_compact());
    }

    #[test]
    fn stats_decode_is_tolerant_of_missing_and_unknown_keys() {
        let sparse = SearchStats::decode_compact("nodes=5 future_key=9").unwrap();
        assert_eq!(sparse.nodes, 5);
        assert_eq!(sparse.leaves, 0);
        assert!(SearchStats::decode_compact("nodes=abc").is_err());
        assert!(SearchStats::decode_compact("naked").is_err());
    }

    #[test]
    fn total_time_adds_up() {
        let stats = SearchStats {
            preprocess_time: Duration::from_millis(30),
            search_time: Duration::from_millis(70),
            ..Default::default()
        };
        assert_eq!(stats.total_time(), Duration::from_millis(100));
    }
}
