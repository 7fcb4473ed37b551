//! Solver configuration.
//!
//! The paper deliberately separates the techniques needed for the
//! `O*(γ_k^n)` time complexity (branching rule BR, reduction rules RR1/RR2)
//! from the techniques that only improve practical performance (UB1, UB3,
//! RR3–RR6, initial-solution heuristics; UB2 is RR5 applied to S).
//! [`SolverConfig`] mirrors that separation: every practical technique can
//! be toggled independently, and the named presets correspond exactly to
//! the algorithm variants evaluated in §4 of the paper.

use kdc_graph::ctcp::Ctcp;
use kdc_graph::degeneracy::Peeling;
use kdc_graph::VertexId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Validates a wall-clock limit given in (possibly fractional) seconds and
/// converts it to a [`Duration`]. Rejects negative, non-finite and absurdly
/// large values with an error instead of letting
/// [`Duration::from_secs_f64`] panic on untrusted input (CLI flags, daemon
/// protocol options).
pub fn parse_time_limit(seconds: f64) -> Result<Duration, String> {
    const MAX_LIMIT_SECS: f64 = 1e9; // ~31 years; anything more is a typo
    if !seconds.is_finite() || !(0.0..=MAX_LIMIT_SECS).contains(&seconds) {
        return Err(format!(
            "invalid time limit {seconds}s (must be finite, >= 0 and <= 1e9)"
        ));
    }
    Ok(Duration::from_secs_f64(seconds))
}

/// Parses a raw time-limit *token* (CLI `--limit`, daemon `limit=`) and
/// validates it via [`parse_time_limit`]. The single entry point for every
/// surface that accepts a wall-clock limit as text, so hostile inputs
/// (`-1`, `NaN`, `inf`, `1e30`, garbage) are rejected identically
/// everywhere.
pub fn parse_time_limit_arg(raw: &str) -> Result<Duration, String> {
    let seconds: f64 = raw
        .trim()
        .parse()
        .map_err(|_| format!("invalid time limit {raw:?} (expected seconds)"))?;
    parse_time_limit(seconds)
}

/// Validates a branch-and-bound node limit. Zero is rejected (a search that
/// may visit no node cannot report anything meaningful) so every surface
/// treats "no limit" as *absent*, never as `0`.
pub fn parse_node_limit(nodes: u64) -> Result<u64, String> {
    if nodes == 0 {
        return Err("invalid node limit 0 (must be >= 1; omit for unlimited)".to_string());
    }
    Ok(nodes)
}

/// Parses a raw node-limit *token* (CLI `--nodes`, daemon `nodes=`) and
/// validates it via [`parse_node_limit`]. Rejects non-numeric, negative,
/// fractional and overflowing values with an error instead of panicking on
/// untrusted input.
pub fn parse_node_limit_arg(raw: &str) -> Result<u64, String> {
    let nodes: u64 = raw
        .trim()
        .parse()
        .map_err(|_| format!("invalid node limit {raw:?} (expected a positive integer)"))?;
    parse_node_limit(nodes)
}

/// A shared cooperative-cancellation flag.
///
/// Clone the flag, hand one copy to the solver via
/// [`SolverConfig::with_cancel`], and keep the other; calling
/// [`CancelFlag::cancel`] from any thread makes the search abort at the next
/// branch-and-bound node with [`crate::Status::Cancelled`], returning the
/// best solution found so far. Cancellation is sticky: once raised, every
/// solve sharing the flag aborts.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-raised flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; safe to call from any thread, idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A coarse progress event emitted during a solve when an [`EventHook`] is
/// installed via [`SolverConfig::on_event`].
///
/// Events are emitted synchronously on the solving thread at incumbent
/// improvements and preprocessing milestones — never per branch-and-bound
/// node — so a hook costs nothing on the hot path and a slow consumer (a
/// TCP writer, a progress bar) only stalls the solve at those milestones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveEvent {
    /// The best known solution improved to `size` vertices. The first event
    /// of a solve reports the initial heuristic/seed bound (when non-zero).
    Incumbent {
        /// Size of the new incumbent.
        size: usize,
    },
    /// The CTCP reducer re-tightened against a risen lower bound and
    /// removed something.
    Retighten {
        /// Vertices removed by this tightening step.
        vertices: u64,
        /// Edges removed by this tightening step.
        edges: u64,
    },
    /// Branch and bound (re)started on a universe of `universe` vertices
    /// (once per solve on the warm path; again after each mid-search
    /// retighten that shrank the universe).
    Restart {
        /// Vertex count of the universe being searched.
        universe: usize,
    },
}

/// A shareable callback receiving [`SolveEvent`]s; install via
/// [`SolverConfig::with_event_hook`]. Cloning shares the same callback.
#[derive(Clone)]
pub struct EventHook(Arc<dyn Fn(SolveEvent) + Send + Sync>);

impl EventHook {
    /// Wraps a callback.
    pub fn new(hook: impl Fn(SolveEvent) + Send + Sync + 'static) -> Self {
        EventHook(Arc::new(hook))
    }

    /// Delivers one event to the callback.
    pub fn emit(&self, event: SolveEvent) {
        (self.0)(event);
    }
}

impl std::fmt::Debug for EventHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventHook(..)")
    }
}

/// How the branching vertex is chosen *among* the vertices admitted by the
/// non-fully-adjacent-first rule BR (the rule itself allows any candidate
/// with a non-neighbour in `S`; the tie-break is a practical choice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchPolicy {
    /// Prefer the candidate with the most non-neighbours in `S`
    /// (fails fastest towards RR1). Default for kDC.
    MaxNonNeighbors,
    /// Plain maximum-degree branching, *ignoring* the BR preference for
    /// non-fully-adjacent vertices. Used by the baselines, which predate BR;
    /// still correct, but forfeits the `O*(γ_k^n)` argument.
    MaxDegreeAny,
}

/// Which initial solution is computed before preprocessing (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialHeuristic {
    /// No initial solution (`lb = 0`); used by the theory-only kDC-t.
    None,
    /// `Degen`: longest k-defective suffix of a degeneracy ordering, O(m).
    Degen,
    /// `Degen-opt`: `Degen` plus one degeneracy-ordering ego-subgraph per
    /// vertex, O(δ(G)·m). Default for kDC.
    DegenOpt,
    /// `Degen-opt` refined by (1-out, multi-in) local search — an extension
    /// beyond the paper that can tighten `lb` before preprocessing.
    DegenOptLocalSearch,
}

/// Full solver configuration. Construct via a preset and override fields as
/// needed; `SolverConfig::kdc()` is the paper's flagship configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Branching tie-break policy (BR itself is always in force).
    pub branch_policy: BranchPolicy,
    /// RR2 — high-degree reduction (greedily add near-universal vertices).
    /// Required (together with RR1 and BR) for the `O*(γ_k^n)` bound.
    pub enable_rr2: bool,
    /// RR3 — degree-sequence reduction (§3.2.2).
    pub enable_rr3: bool,
    /// RR4 — second-order reduction (§3.2.2).
    pub enable_rr4: bool,
    /// RR5 — (lb − k)-core reduction \[11\], applied at every node and during
    /// preprocessing.
    pub enable_rr5: bool,
    /// RR6 — (lb − k + 1)-truss reduction \[16\], preprocessing only (§3.2.3).
    pub enable_rr6: bool,
    /// UB1 — improved colouring upper bound (§3.2.1).
    pub enable_ub1: bool,
    /// UB3 — non-neighbour-prefix upper bound \[16\].
    pub enable_ub3: bool,
    /// KD-Club-style colouring bound \[Jin et al., AAAI 2024\]: re-colour the
    /// *current* candidate subgraph at every node, packing the non-neighbours
    /// of `S` first, and distribute the remaining missing-edge budget
    /// `k − |Ē(S)|` greedily across the colour classes. Evaluated after
    /// UB3 and UB1 (only when they fail to prune), so enabling it can only
    /// shrink the search tree; see [`SearchStats::kdclub_prunes`] for how
    /// often it was the deciding bound.
    ///
    /// [`SearchStats::kdclub_prunes`]: crate::SearchStats
    pub enable_kdclub: bool,
    /// Replace UB1 by the weaker Eq. (2) colouring bound of MADEC+ \[11\]
    /// (used by the MADEC-like baseline and the tightness experiments).
    pub use_eq2_bound: bool,
    /// Drive the engine's per-node hot path (S-insertion, candidate removal,
    /// backtracking, maximality checks, RR4 common-neighbour counts) through
    /// masked `u64`-word sweeps over a dense bit-matrix of the universe,
    /// built whenever it fits the engine's 64 MiB word budget (universes of
    /// at most 23,168 vertices). Off selects the sorted-list representation
    /// and its per-vertex probes for every universe. The search tree is
    /// bit-identical either way — this flag exists so the scalar path stays
    /// testable as the parity reference and measurable as the benchmark
    /// baseline.
    pub word_kernel: bool,
    /// Initial-solution heuristic (Line 1 of Algorithm 2).
    pub heuristic: InitialHeuristic,
    /// Wall-clock limit per solve, counted from its start, heuristic and
    /// preprocessing included, and shared by all of its restarts and ego
    /// instances; on expiry the best solution found so far is returned
    /// with [`crate::Status::TimedOut`].
    pub time_limit: Option<Duration>,
    /// Search-node limit per solve, mainly for experiments on search-tree
    /// size. Every restart and ego instance draws on one pool and is armed
    /// with the nodes unspent when it starts, so a solve on one thread
    /// visits at most this many nodes; only ego instances running at once
    /// on several threads can overshoot it together. A search that needs
    /// more returns the best solution found so far with
    /// [`crate::Status::NodeLimitReached`].
    pub node_limit: Option<u64>,
    /// Cooperative cancellation: when the flag is raised, the search aborts
    /// at the next node with [`crate::Status::Cancelled`]. `None` disables
    /// the per-node check entirely.
    pub cancel: Option<CancelFlag>,
    /// A precomputed degeneracy peeling of the *input* graph, reused by the
    /// initial-solution heuristics and the ego decomposition instead of
    /// re-peeling. Must describe exactly the graph handed to the solver
    /// (checked by `debug_assert`); long-running services cache one peeling
    /// per resident graph and share it across solves.
    pub shared_peeling: Option<Arc<Peeling>>,
    /// A resident incremental CTCP reducer for the *input* graph, built with
    /// this configuration's `k` and RR5/RR6 flags. When installed, the
    /// solver resumes tightening from the reducer's current state instead of
    /// recomputing the core/truss fixpoint from scratch — the warm-solve
    /// path of long-running services. Ignored (with a fresh reducer built
    /// instead) if the reducer's graph/k/rules don't match, or if its
    /// recorded lower bound exceeds what this solve can justify.
    pub shared_ctcp: Option<Arc<Mutex<Ctcp>>>,
    /// A previously found k-defective clique of the input graph, used as an
    /// extra initial lower-bound candidate (validated before use). Services
    /// install their best known witness so warm solves start at least as
    /// tight as every earlier solve — which in turn makes `shared_ctcp`'s
    /// accumulated removals sound for this run.
    pub seed_solution: Option<Vec<VertexId>>,
    /// An externally *proven* upper bound on the optimum size. The search
    /// terminates with [`crate::Status::Optimal`] as soon as the incumbent
    /// reaches it, instead of exhausting the tree to prove what the caller
    /// already knows. Soundness is the caller's responsibility: batch
    /// k-sweeps derive it from the adjacent-k optimum (any k-defective
    /// clique is (k+1)-defective, and dropping a vertex incident to a
    /// missing edge turns a (k+1)-defective clique into a k-defective one,
    /// so `opt(k) ≤ opt(k') ≤ opt(k) + (k' − k)` for `k ≤ k'`). The cap
    /// only ever stops the search early — it never alters pruning — so the
    /// reported witness is identical to an uncapped run's.
    pub known_ub: Option<usize>,
    /// Progress callback, fired at incumbent improvements, retightens and
    /// search restarts (see [`SolveEvent`]). `None` disables event emission
    /// entirely.
    pub on_event: Option<EventHook>,
    /// Phase tracer: when installed, the solver records spans for its
    /// coarse phases (`peel`, `tighten`, `branch`) and the decomposition
    /// records one `ego` span per re-solved subproblem. `None` (the
    /// default in every preset) records nothing.
    pub trace: Option<kdc_obs::Tracer>,
}

impl SolverConfig {
    /// The full kDC algorithm (Algorithm 2): BR + RR1–RR6 + UB1 and UB3
    /// (UB2 through RR5 on S) + Degen-opt.
    pub fn kdc() -> Self {
        SolverConfig {
            branch_policy: BranchPolicy::MaxNonNeighbors,
            enable_rr2: true,
            enable_rr3: true,
            enable_rr4: true,
            enable_rr5: true,
            enable_rr6: true,
            enable_ub1: true,
            enable_ub3: true,
            enable_kdclub: false,
            use_eq2_bound: false,
            word_kernel: true,
            heuristic: InitialHeuristic::DegenOpt,
            time_limit: None,
            node_limit: None,
            cancel: None,
            shared_peeling: None,
            shared_ctcp: None,
            seed_solution: None,
            known_ub: None,
            on_event: None,
            trace: None,
        }
    }

    /// kDC-t (Algorithm 1): the bare minimum achieving `O*(γ_k^n)` — BR,
    /// RR1, RR2 and nothing else. No bounds, no lb-based reductions, no
    /// initial solution.
    pub fn kdc_t() -> Self {
        SolverConfig {
            enable_rr3: false,
            enable_rr4: false,
            enable_rr5: false,
            enable_rr6: false,
            enable_ub1: false,
            enable_ub3: false,
            heuristic: InitialHeuristic::None,
            ..Self::kdc()
        }
    }

    /// kDC augmented with the KD-Club-style colouring bound: everything in
    /// [`SolverConfig::kdc`] plus a per-node re-colouring bound evaluated
    /// when UB3 and UB1 fail to prune. Typically explores fewer branch-and-bound
    /// nodes than `kdc` at a higher per-node cost; preferable on instances
    /// where the search tree, not the bound evaluation, dominates.
    pub fn kdclub() -> Self {
        SolverConfig {
            enable_kdclub: true,
            ..Self::kdc()
        }
    }

    /// `kDC/UB1` of §4.2: kDC without the improved colouring bound.
    pub fn without_ub1() -> Self {
        SolverConfig {
            enable_ub1: false,
            ..Self::kdc()
        }
    }

    /// `kDC/RR3&4` of §4.2: kDC without the two new reduction rules.
    pub fn without_rr3_rr4() -> Self {
        SolverConfig {
            enable_rr3: false,
            enable_rr4: false,
            ..Self::kdc()
        }
    }

    /// `kDC/UB1&RR3&4` of §4.2: both ablations combined.
    pub fn without_ub1_rr3_rr4() -> Self {
        SolverConfig {
            enable_ub1: false,
            enable_rr3: false,
            enable_rr4: false,
            ..Self::kdc()
        }
    }

    /// `kDC-Degen` of §4.2: the cheap `Degen` initial solution and no RR6
    /// preprocessing (O(m) preprocessing instead of O(δ(G)·m)).
    pub fn degen() -> Self {
        SolverConfig {
            heuristic: InitialHeuristic::Degen,
            enable_rr6: false,
            ..Self::kdc()
        }
    }

    /// A KDBB-like baseline \[16\]: preprocessing (core + truss) and the UB3
    /// bound, but none of kDC's novel rules (no RR2/RR3/RR4, no UB1) and
    /// plain max-degree branching.
    pub fn kdbb_like() -> Self {
        SolverConfig {
            branch_policy: BranchPolicy::MaxDegreeAny,
            enable_rr2: false,
            enable_rr3: false,
            enable_rr4: false,
            enable_ub1: false,
            heuristic: InitialHeuristic::Degen,
            ..Self::kdc()
        }
    }

    /// A MADEC-like baseline \[11\]: the Eq. (2) colouring bound and core
    /// pruning, no RR2 (hence the `O*(γ_{2k}^n)` behaviour), no UB1/RR3/RR4.
    pub fn madec_like() -> Self {
        SolverConfig {
            branch_policy: BranchPolicy::MaxDegreeAny,
            enable_rr2: false,
            enable_rr3: false,
            enable_rr4: false,
            enable_rr6: false,
            enable_ub1: false,
            enable_ub3: false,
            use_eq2_bound: true,
            heuristic: InitialHeuristic::Degen,
            ..Self::kdc()
        }
    }

    /// Resolves a preset *name* (as accepted by the CLI's `--preset` and
    /// the daemon protocol's `preset=`) to its configuration. The single
    /// name table for the whole system — every surface that accepts preset
    /// names must resolve them here so they can never disagree.
    pub fn from_preset(name: &str) -> Result<Self, String> {
        Ok(match name {
            "kdc" => Self::kdc(),
            "kdc_t" => Self::kdc_t(),
            "kdclub" => Self::kdclub(),
            "kdbb" => Self::kdbb_like(),
            "madec" => Self::madec_like(),
            other => return Err(format!("unknown preset {other:?}")),
        })
    }

    /// Disables the word-parallel engine kernel: every universe runs on the
    /// sorted-list representation with the scalar per-vertex hot path (the
    /// parity reference and benchmark baseline; see
    /// [`SolverConfig::word_kernel`]).
    pub fn with_scalar_kernel(mut self) -> Self {
        self.word_kernel = false;
        self
    }

    /// Builder-style override of the time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Builder-style override of the node limit.
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Builder-style installation of a cooperative cancellation flag.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Builder-style installation of a precomputed degeneracy peeling of
    /// the input graph (see [`SolverConfig::shared_peeling`]).
    pub fn with_shared_peeling(mut self, peeling: Arc<Peeling>) -> Self {
        self.shared_peeling = Some(peeling);
        self
    }

    /// Builder-style installation of a resident CTCP reducer (see
    /// [`SolverConfig::shared_ctcp`]).
    pub fn with_shared_ctcp(mut self, ctcp: Arc<Mutex<Ctcp>>) -> Self {
        self.shared_ctcp = Some(ctcp);
        self
    }

    /// Builder-style installation of a known-solution seed (see
    /// [`SolverConfig::seed_solution`]).
    pub fn with_seed_solution(mut self, seed: Vec<VertexId>) -> Self {
        self.seed_solution = Some(seed);
        self
    }

    /// Builder-style installation of a proven upper-bound cap (see
    /// [`SolverConfig::known_ub`]).
    pub fn with_known_ub(mut self, ub: usize) -> Self {
        self.known_ub = Some(ub);
        self
    }

    /// Builder-style installation of a progress-event callback (see
    /// [`SolverConfig::on_event`]).
    pub fn with_event_hook(mut self, hook: EventHook) -> Self {
        self.on_event = Some(hook);
        self
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self::kdc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kdc_t_is_minimal() {
        let c = SolverConfig::kdc_t();
        assert!(c.enable_rr2, "RR2 is part of the complexity argument");
        assert!(!c.enable_rr3 && !c.enable_rr4 && !c.enable_rr5 && !c.enable_rr6);
        assert!(!c.enable_ub1 && !c.enable_ub3);
        assert_eq!(c.heuristic, InitialHeuristic::None);
    }

    #[test]
    fn ablations_differ_only_in_stated_flags() {
        let base = SolverConfig::kdc();
        let no_ub1 = SolverConfig::without_ub1();
        assert!(!no_ub1.enable_ub1);
        assert_eq!(no_ub1.enable_rr3, base.enable_rr3);

        let no_rr = SolverConfig::without_rr3_rr4();
        assert!(!no_rr.enable_rr3 && !no_rr.enable_rr4);
        assert!(no_rr.enable_ub1);

        let degen = SolverConfig::degen();
        assert_eq!(degen.heuristic, InitialHeuristic::Degen);
        assert!(!degen.enable_rr6);
        assert!(degen.enable_ub1);
    }

    #[test]
    fn from_preset_resolves_every_name() {
        for name in ["kdc", "kdc_t", "kdclub", "kdbb", "madec"] {
            assert!(SolverConfig::from_preset(name).is_ok(), "{name}");
        }
        assert!(
            SolverConfig::from_preset("kdclub").unwrap().enable_kdclub,
            "kdclub preset enables the KD-Club bound"
        );
        assert!(SolverConfig::from_preset("nope").is_err());
        assert_eq!(
            SolverConfig::from_preset("kdc_t").unwrap().heuristic,
            InitialHeuristic::None
        );
    }

    #[test]
    fn time_limit_parsing_rejects_hostile_values() {
        assert!(parse_time_limit(2.5).is_ok());
        assert!(parse_time_limit(0.0).is_ok());
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e30] {
            assert!(parse_time_limit(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn time_limit_arg_parsing_rejects_hostile_tokens() {
        assert_eq!(
            parse_time_limit_arg("2.5").unwrap(),
            Duration::from_secs_f64(2.5)
        );
        assert_eq!(parse_time_limit_arg(" 0 ").unwrap(), Duration::ZERO);
        for bad in ["-1", "NaN", "inf", "-inf", "1e30", "", "fast", "1s"] {
            assert!(
                parse_time_limit_arg(bad).is_err(),
                "limit token {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn node_limit_parsing_rejects_hostile_tokens() {
        assert_eq!(parse_node_limit_arg("1").unwrap(), 1);
        assert_eq!(parse_node_limit_arg(" 1000000 ").unwrap(), 1_000_000);
        assert_eq!(parse_node_limit(u64::MAX).unwrap(), u64::MAX);
        assert!(parse_node_limit(0).is_err(), "0 nodes means no search");
        for bad in [
            "0",
            "-1",
            "1.5",
            "1e9",
            "NaN",
            "",
            "many",
            "18446744073709551616", // u64::MAX + 1
        ] {
            assert!(
                parse_node_limit_arg(bad).is_err(),
                "node token {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn event_hook_delivers_and_clones_share() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let hook = EventHook::new(move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        hook.emit(SolveEvent::Incumbent { size: 3 });
        hook.clone().emit(SolveEvent::Restart { universe: 10 });
        assert_eq!(count.load(Ordering::Relaxed), 2);
        // Installing it on a config keeps the config Clone + Debug.
        let cfg = SolverConfig::kdc().with_event_hook(hook);
        let _ = format!("{:?}", cfg.clone());
    }

    #[test]
    fn builders_apply() {
        let c = SolverConfig::kdc()
            .with_time_limit(Duration::from_secs(3))
            .with_node_limit(100);
        assert_eq!(c.time_limit, Some(Duration::from_secs(3)));
        assert_eq!(c.node_limit, Some(100));
    }

    #[test]
    fn word_kernel_is_on_everywhere_and_scalar_is_opt_in() {
        for preset in ["kdc", "kdc_t", "kdclub", "kdbb", "madec"] {
            assert!(
                SolverConfig::from_preset(preset).unwrap().word_kernel,
                "{preset} must default to the word kernel"
            );
        }
        let scalar = SolverConfig::kdc().with_scalar_kernel();
        assert!(!scalar.word_kernel);
        assert!(
            !SolverConfig::kdc().enable_kdclub,
            "the KD-Club bound is opt-in"
        );
    }
}
