#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # kdc-bench
//!
//! Experiment harness for the kDC suite: synthetic benchmark collections
//! ([`collections`]), a parallel timed runner ([`runner`]), table
//! rendering ([`table`]) and the perf-baseline format and checker behind
//! the `bench` binary ([`baseline`]).
//!
//! One binary per paper artifact regenerates the corresponding table/figure;
//! see DESIGN.md §4 for the full index and EXPERIMENTS.md for measured
//! results. Every binary accepts `--quick` (small collections) and most
//! accept `--limit <seconds>` (per-solve time limit).

pub mod baseline;
pub mod collections;
pub mod figures;
pub mod runner;
pub mod table;
