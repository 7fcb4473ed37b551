//! `kdc_obs` — std-only observability layer for the kDC suite.
//!
//! Three pieces, all dependency-free:
//!
//! - [`metrics`]: a process-global registry of atomic counters, gauges and
//!   log-linear latency histograms. Handles are cheap `Arc`-backed clones;
//!   recording is a relaxed atomic op guarded by one global enable flag, so
//!   the layer is near-free when disabled via [`set_enabled`].
//! - [`trace`]: lightweight phase spans recorded into a bounded,
//!   preallocated ring buffer per [`trace::Tracer`], exportable as
//!   chrome://tracing JSON.
//! - Naming: every series follows `kdc_<subsystem>_<name>` snake-case,
//!   enforced by the `metric_names` rule in `kdc_lint`.
//!
//! The registry's internal lock is rank 9 in `LOCK_ORDER.md`: it is a leaf
//! lock — no other lock in the workspace is ever acquired while it is held.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{registry, Counter, CounterBlock, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{span, MaybeSpan, PhaseTotal, Span, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global observability switch. Defaults to enabled.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Returns whether metric recording is currently enabled.
///
/// This is a single relaxed load; recording sites branch on it so the
/// disabled path costs one predictable branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables metric recording process-wide.
///
/// Registration and reading remain available while disabled; only the
/// recording fast paths (`inc`, `add`, `observe`, bound timing) become
/// no-ops. Used by the bench harness to measure instrumentation overhead.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
