#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # kdc — exact maximum k-defective clique computation
//!
//! A faithful reproduction of **kDC**, the branch-and-bound framework of
//! *Efficient Maximum k-Defective Clique Computation with Improved Time
//! Complexity* (Lijun Chang, SIGMOD 2023).
//!
//! A *k-defective clique* is a vertex set missing at most `k` edges from
//! being complete. kDC computes a maximum one exactly, in `O*(γ_k^n)` time
//! where `γ_k < 2` is the largest real root of `x^(k+3) − 2x^(k+2) + 1 = 0`
//! ([`gamma::gamma_k`]), improving on the previous best `O*(γ_{2k}^n)`.
//!
//! ## Quickstart
//!
//! ```
//! use kdc::{Solver, SolverConfig};
//! use kdc_graph::Graph;
//!
//! // A 5-cycle: max clique = 2, but one allowed missing edge admits 3.
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
//! let sol = Solver::new(&g, 1, SolverConfig::kdc()).solve();
//! assert_eq!(sol.vertices.len(), 3);
//! ```
//!
//! ## Structure
//!
//! * [`solver::Solver`] — Algorithm 2: heuristic → preprocessing → search;
//! * [`config::SolverConfig`] — presets for kDC, kDC-t and every ablation
//!   variant of §4 (`kDC/UB1`, `kDC/RR3&4`, `kDC-Degen`, baselines);
//! * [`heuristic`] — `Degen` / `Degen-opt` initial solutions (§3.3) plus a
//!   local-search refinement;
//! * [`gamma`] — the branching factor γ_k of Theorem 3.5;
//! * [`topr`] — §6 extensions (top-r maximal / top-r diversified / full
//!   maximal enumeration);
//! * [`counting`] — exact per-size counts (the §5 counting problem);
//! * [`decompose`] — parallel ego decomposition for large sparse graphs;
//! * [`probe`] — UB1/UB2/UB3/Eq. (2) evaluation on arbitrary instances;
//! * [`verify`] — independent solution checking and portable certificates;
//! * the engine (branching rule BR, reduction rules RR1–RR5, upper bounds
//!   UB1 and UB3, the KD-Club bound and the Eq. (2) baseline bound; UB2 is
//!   RR5 applied to S) is internal; configure it through
//!   [`config::SolverConfig`].

pub mod config;
pub mod counting;
pub mod decompose;
pub mod gamma;
pub mod heuristic;
pub mod probe;
pub mod solver;
pub mod stats;
pub mod topr;
pub mod verify;

mod engine;

pub use config::{BranchPolicy, CancelFlag, EventHook, InitialHeuristic, SolveEvent, SolverConfig};
pub use gamma::{gamma_k, sigma_k};
pub use solver::{max_defective_clique, Solver};
pub use stats::{bound, BoundCost, SearchStats, Solution, Status};
