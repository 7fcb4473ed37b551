#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # kdc_service — a long-running kDC solver daemon
//!
//! Every standalone `kdc solve` pays process startup, graph parsing and
//! preprocessing before the first branch-and-bound node. On large sparse
//! graphs that fixed cost dominates (the reduction rules RR5/RR6 are the
//! point of the paper's preprocessing), and it is exactly the cost a
//! resident service amortizes: **load and reduce a graph once, then answer
//! many `(k, preset, limit)` queries against it**.
//!
//! The daemon is std-only (no external dependencies) and speaks a
//! newline-delimited text protocol over `TcpListener` (loopback by
//! default); see [`protocol`] for the grammar. It owns three pieces:
//!
//! * [`cache::GraphCache`] — a name-keyed map of [`kdc_api::Session`]s;
//!   every solver-side artifact (degeneracy peeling, LRU-bounded resident
//!   CTCP reducers, best-known witnesses, the proven-optimal result memo)
//!   lives *inside* the session, with explicit counters so warm reuse is
//!   assertable, not just observable in timings;
//! * [`jobs::JobQueue`] / [`jobs::WorkerPool`] — a FIFO queue and a fixed
//!   `std::thread` pool coordinated by one `Mutex` and two `Condvar`s. Each
//!   job is one [`jobs::JobSpec`]: a typed [`kdc_api::Query`] with its
//!   [`kdc_api::Options`] and [`kdc_api::Budget`] (deadline, node limit,
//!   threads), built once at the protocol edge — where an unknown graph or
//!   preset is refused — and run through the cached session with
//!   cooperative cancellation ([`kdc::CancelFlag`], owned by the queue);
//! * [`server::Server`] — the accept loop and per-connection handlers,
//!   including the `SOLVE verbose=1` `EVENT` stream fed by a
//!   [`kdc_api::Observer`] registered on the job.
//!
//! ## Threading model
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!  client A ──TCP──► │ conn thread A ──┐                          │
//!  client B ──TCP──► │ conn thread B ──┤ submit / wait            │
//!                    │                 ▼                          │
//!  accept loop ────► │        JobQueue (Mutex + 2 Condvars)       │
//!  (run/spawn        │                 ▲                          │
//!   thread)          │   worker 1 ─────┤ next_job / finish        │
//!                    │   worker …  ────┘    │                     │
//!                    │                      ▼                     │
//!                    │        GraphCache (Arc<Graph> + artifacts) │
//!                    └────────────────────────────────────────────┘
//! ```
//!
//! * **One accept thread** (the caller of [`server::Server::run`], or a
//!   background thread under [`server::Server::spawn`]) only accepts.
//! * **One handler thread per connection** parses lines and executes
//!   commands. Cheap commands (`LOAD`, `STATS`, `JOBS`, …) run inline on
//!   the handler thread; the query verbs (`SOLVE`, `MSOLVE`, `ENUMERATE`,
//!   `COUNT`) are submitted to the queue and the handler blocks in
//!   [`jobs::JobQueue::wait`] — so solver concurrency is bounded by the
//!   worker pool, never by the number of clients. A non-verbose `SOLVE`
//!   the session's proven-optimal memo can answer is the one exception:
//!   the handler answers it inline, without a job (its reply has no
//!   `job=`).
//! * **N worker threads** (fixed at startup) pop jobs FIFO. A job's
//!   [`kdc::CancelFlag`] is raised by `CANCEL <id>` from *any* connection;
//!   the engine notices at its next branch-and-bound node and returns the
//!   best solution found so far.
//! * **Shutdown** raises a latch, pokes the accept loop with a loopback
//!   connection, and tears down per the requested mode: `mode=abort` (the
//!   default) cancels every outstanding job cooperatively; `mode=drain`
//!   first blocks in [`jobs::JobQueue::drain`] until queued and running
//!   jobs have answered their waiters (verbose `EVENT` streams included),
//!   then joins the workers. Handler threads are detached and die with
//!   their connections.
//!
//! Shared-state discipline: the cache and queue are each a single coarse
//! `Mutex` (lookups and bookkeeping are microseconds; solves run outside
//! any lock), per-graph counters are relaxed atomics, and graphs are
//! immutable behind `Arc` — workers never copy a cached graph.
//!
//! ## Hardened lifecycle
//!
//! The daemon degrades loudly, not mysteriously, under overload and
//! misbehaving clients:
//!
//! * **Admission control** ([`server::Server::with_limits`]) — beyond the
//!   connection cap or job-queue depth bound, requests get a typed
//!   `ERR busy .. retry_after_ms=..` line instead of unbounded queueing
//!   (`kdc_service_busy_rejections_total`).
//! * **Idle timeouts** ([`server::Server::with_idle_timeout`]) — half-open
//!   or stalled connections are reaped so handler threads cannot leak
//!   (`kdc_service_conn_timeouts_total`); real transport errors are
//!   distinguished from clean EOF and counted
//!   (`kdc_service_conn_errors_total`).
//! * **Watchdog** ([`server::Server::with_watchdog`]) — jobs submitted
//!   without their own `limit=`/`nodes=` budget are cancelled after a
//!   default deadline and surfaced as `failed reason=watchdog`
//!   (`kdc_service_watchdog_kills_total`).
//! * **Client retry** ([`server::request_with_retry`], `kdc client
//!   --retries`) — retries connect failures and busy replies for every
//!   verb, plus torn replies / mid-exchange errors for the idempotent
//!   read verbs (`SOLVE`/`STATS`/`METRICS`), with decorrelated-jitter
//!   backoff.
//! * **Durable session state** ([`persist`], `kdc serve --state-dir`) —
//!   every newly proven outcome is journaled to a crash-safe
//!   snapshot/journal store (the `kdc_store` crate: CRC-framed records,
//!   atomic tmp-write + rename compaction); a killed daemon restarts
//!   warm, revalidating each recovered graph against its source file's
//!   content hash and answering recovered queries `cached=true`.
//! * **Fault injection** (the `kdc_faults` crate) — named injection points
//!   (`accept`, `conn_read`, `conn_write`, `job_start`, `solve_node`,
//!   `cache_insert`, `store_write`, `store_read`) armed via `KDC_FAULTS`
//!   or the debug-only `FAULTS` verb drive all of the above in the chaos
//!   soak test (`kdc_service_faults_injected_total`); disarmed, each
//!   point is one relaxed atomic load.

pub mod cache;
pub mod jobs;
pub mod persist;
pub mod protocol;
pub mod server;
pub mod sync;

pub use cache::{GraphCache, GraphEntry};
pub use jobs::{
    JobInfo, JobObserver, JobOutcome, JobQueue, JobSpec, JobState, SubmitError, WorkerPool,
};
pub use persist::{export_graph_state, import_graph_state};
pub use protocol::{parse_command, Command, ShutdownMode};
pub use server::{request, request_with_retry, Server, ServerHandle, DEFAULT_SLOW_THRESHOLD};
