//! Job queue and fixed worker pool.
//!
//! Connection threads [`JobQueue::submit`] work and block in
//! [`JobQueue::wait`]; a fixed set of worker threads pops jobs FIFO and runs
//! them through the resident [`kdc_api::Session`] of the cached graph. A job
//! is one typed request: the same [`Query`], [`Options`] and [`Budget`] the
//! CLI, the benches and embedders pass, so the daemon serves exactly the
//! measured path and a new verb needs no new job shape. All coordination is
//! one `Mutex` around the queue state plus two `Condvar`s (`work_ready`
//! wakes idle workers, `job_done` wakes waiters), so the pool is std-only.
//!
//! Cancellation is cooperative: the queue owns every job's [`CancelFlag`]
//! and installs it into the job's budget when a worker runs it, and
//! `CANCEL <id>` simply raises it — the branch-and-bound engine notices at
//! its next node. Per-job deadlines and node limits ride the same budget.

use crate::cache::GraphEntry;
use crate::sync::{rank, TrackedMutex};
use kdc::{CancelFlag, Status};
use kdc_api::{BatchOutcome, Budget, Observer, Options, Outcome, Query};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// A Debug-opaque observer handle, so [`JobSpec`] stays derive-Debuggable
/// while a verbose job streams [`kdc_api::Event`]s back to its connection.
#[derive(Clone)]
pub struct JobObserver(pub Arc<dyn Observer>);

impl std::fmt::Debug for JobObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobObserver(..)")
    }
}

/// What a job should run: one typed query on one cached graph. Every verb
/// (`SOLVE`, `MSOLVE`, `ENUMERATE`, `COUNT`) is a [`Query`] here, so the
/// request keeps one shape from the protocol edge to the session. The
/// budget's cancel flag is ignored: the queue owns each job's flag and
/// installs it when a worker runs the job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Cached graph to run on.
    pub entry: Arc<GraphEntry>,
    /// The query; a [`Query::Batch`] finishes as [`JobOutcome::Batch`],
    /// every other query as [`JobOutcome::Done`]. A batch is one job: one
    /// `CANCEL` aborts the whole sweep, and a draining shutdown lets all of
    /// it finish.
    pub query: Query,
    /// Preset, validated when the spec is built.
    pub options: Options,
    /// Deadline, node limit and solver threads.
    pub budget: Budget,
    /// Event stream for `SOLVE verbose=1` and `MSOLVE` `RESULT` lines.
    pub observer: Option<JobObserver>,
    /// Phase-span recorder for the `TRACE <id>` verb and the slow-query
    /// log; the queue keeps a clone on the job record.
    pub trace: Option<kdc_obs::Tracer>,
}

impl JobSpec {
    /// `query` on `entry` under the default preset and an unlimited,
    /// sequential budget, with no observer and no tracer.
    pub fn new(entry: Arc<GraphEntry>, query: Query) -> Self {
        JobSpec {
            entry,
            query,
            options: Options::default(),
            budget: Budget::default(),
            observer: None,
            trace: None,
        }
    }

    /// Whether the job carries its own deadline or node budget. Jobs that
    /// don't are the watchdog's prey: nothing else bounds them.
    fn has_deadline(&self) -> bool {
        self.budget.time_limit.is_some() || self.budget.node_limit.is_some()
    }

    /// Compact single-token description for `JOBS` listings.
    fn describe(&self) -> String {
        let name = &self.entry.name;
        let preset = self.options.preset_name();
        match &self.query {
            Query::Solve { k } => format!("solve({name},k={k},preset={preset})"),
            Query::Batch(subs) => {
                let lo = subs.iter().map(|s| s.k).min().unwrap_or(0);
                format!("batch({name},k={lo}..{},preset={preset})", self.query.k())
            }
            Query::Enumerate { k } => format!("enumerate({name},k={k})"),
            Query::TopR { k, r, .. } => format!("enumerate({name},k={k},top={r})"),
            Query::Count { k, min_size } => format!("count({name},k={k},min={min_size})"),
        }
    }
}

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not yet picked up by a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished (see the outcome for the solve status).
    Done,
    /// Cancelled before or during execution.
    Cancelled,
    /// The job itself failed (e.g. a query the session rejects).
    Failed,
}

impl JobState {
    /// Lower-case protocol token.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// Result of a finished job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The query finished (possibly best-effort; see
    /// [`kdc_api::Outcome::status`]). Boxed: an `Outcome` carries witness
    /// vectors and full search statistics, far larger than the error arm.
    Done(Box<Outcome>),
    /// A batched sweep finished: per-sub-query outcomes plus the batch's
    /// shared-work counters. Boxed for the same reason as `Done`.
    Batch(Box<BatchOutcome>),
    /// The job failed before producing a result.
    Error(String),
}

/// One row of a `JOBS` listing.
#[derive(Clone, Debug)]
pub struct JobInfo {
    /// Job id (monotonically increasing from 1).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Compact description, e.g. `solve(g1,k=2,preset=kdc)`.
    pub description: String,
    /// Nanoseconds spent waiting in the queue (still growing while queued).
    pub queued_ns: u64,
    /// Nanoseconds spent executing (0 if never started; still growing
    /// while running).
    pub running_ns: u64,
    /// Why the job reached its terminal state, when the cause is the
    /// daemon rather than the query (today: `Some("watchdog")`).
    pub reason: Option<&'static str>,
}

struct JobRecord {
    state: JobState,
    description: String,
    cancel: CancelFlag,
    outcome: Option<JobOutcome>,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    trace: Option<kdc_obs::Tracer>,
    /// The spec carried its own limit/node budget, exempting it from the
    /// watchdog's default deadline.
    has_deadline: bool,
    /// The watchdog cancelled this job; `finish` reports it as failed.
    watchdog_fired: bool,
}

impl JobRecord {
    /// Queue-wait so far: submission to pickup (or finalization, for jobs
    /// cancelled while queued; `now` while still waiting).
    fn queued_ns(&self, now: Instant) -> u64 {
        let end = self.started.or(self.finished).unwrap_or(now);
        duration_ns(end.saturating_duration_since(self.submitted))
    }

    /// Execution time so far: pickup to completion (`now` while running,
    /// 0 if never picked up).
    fn running_ns(&self, now: Instant) -> u64 {
        match self.started {
            None => 0,
            Some(started) => {
                let end = self.finished.unwrap_or(now);
                duration_ns(end.saturating_duration_since(started))
            }
        }
    }
}

/// Saturating nanosecond count of a duration.
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

#[derive(Default)]
struct QueueState {
    next_id: u64,
    queue: VecDeque<(u64, JobSpec)>,
    records: HashMap<u64, JobRecord>,
    /// Ids in submission order, for stable `JOBS` listings.
    history: Vec<u64>,
    shutdown: bool,
    /// Draining: no new submissions, but workers keep popping until the
    /// queue and the running set are both empty.
    draining: bool,
    /// Jobs currently executing on workers (picked up, not yet finished).
    running: usize,
}

/// The shared queue: submit/wait/cancel/list on one mutex, two condvars.
/// The mutex is rank-checked against `LOCK_ORDER.md` in debug builds and
/// recovers from poisoning — a job that panics mid-flight must not wedge
/// the queue for every later request.
pub struct JobQueue {
    state: TrackedMutex<QueueState>,
    work_ready: Condvar,
    job_done: Condvar,
    /// Registry twins: current queue depth, lifetime submissions, and the
    /// queue-wait / execution latency distributions.
    depth: kdc_obs::Gauge,
    jobs_total: kdc_obs::Counter,
    queue_wait_ns: kdc_obs::Histogram,
    job_duration_ns: kdc_obs::Histogram,
    watchdog_kills: kdc_obs::Counter,
    faults_injected: kdc_obs::Counter,
}

/// Why [`JobQueue::try_submit`] refused a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its admission-control depth bound; try again after
    /// a backoff (the daemon turns this into a typed `ERR busy` reply).
    Busy {
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// The daemon is draining or shut down; no new work is admitted.
    ShuttingDown,
}

impl Default for JobQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> Self {
        let r = kdc_obs::registry();
        JobQueue {
            state: TrackedMutex::new(rank::JOB_QUEUE, "JobQueue::state", QueueState::default()),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            depth: r.register_gauge("kdc_service_queue_depth"),
            jobs_total: r.register_counter("kdc_service_jobs_total"),
            queue_wait_ns: r.register_histogram("kdc_service_queue_wait_ns"),
            job_duration_ns: r.register_histogram("kdc_service_job_duration_ns"),
            watchdog_kills: r.register_counter("kdc_service_watchdog_kills_total"),
            faults_injected: r.register_counter("kdc_service_faults_injected_total"),
        }
    }

    /// Enqueues `spec`; returns the job id immediately. After
    /// [`JobQueue::shutdown`] (or during a drain) the job is finalized as
    /// cancelled on the spot (no worker will ever pop it), so waiters never
    /// block forever.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        let now = Instant::now();
        let mut state = self.state.lock();
        state.next_id += 1;
        let id = state.next_id;
        let shutting_down = state.shutdown || state.draining;
        state.records.insert(
            id,
            JobRecord {
                state: if shutting_down {
                    JobState::Cancelled
                } else {
                    JobState::Queued
                },
                description: spec.describe(),
                cancel: CancelFlag::new(),
                outcome: shutting_down
                    .then(|| JobOutcome::Error("server shutting down".to_string())),
                submitted: now,
                started: None,
                finished: shutting_down.then_some(now),
                trace: spec.trace.clone(),
                has_deadline: spec.has_deadline(),
                watchdog_fired: false,
            },
        );
        state.history.push(id);
        if !shutting_down {
            state.queue.push_back((id, spec));
        }
        self.jobs_total.inc();
        self.depth.set(state.queue.len() as i64);
        drop(state);
        self.work_ready.notify_one();
        id
    }

    /// Admission-controlled submit: refuses instead of queueing when the
    /// queue already holds `max_depth` jobs (`max_depth` 0 = unlimited) or
    /// the daemon is draining/shut down. On refusal nothing is recorded —
    /// a rejected request leaves no `JOBS` row to leak.
    pub fn try_submit(&self, spec: JobSpec, max_depth: usize) -> Result<u64, SubmitError> {
        {
            let state = self.state.lock();
            if state.shutdown || state.draining {
                return Err(SubmitError::ShuttingDown);
            }
            let depth = state.queue.len();
            if max_depth > 0 && depth >= max_depth {
                return Err(SubmitError::Busy { depth });
            }
            // The lock is released and re-taken by `submit`; a racing
            // submit can overshoot `max_depth` by at most the number of
            // concurrently admitted connections, which is what the bound
            // is for — a load shedder, not an exact invariant.
        }
        Ok(self.submit(spec))
    }

    /// Blocks until job `id` reaches a terminal state; returns its outcome.
    pub fn wait(&self, id: u64) -> JobOutcome {
        let mut state = self.state.lock();
        loop {
            match state.records.get(&id) {
                None => return JobOutcome::Error(format!("unknown job {id}")),
                Some(record) => {
                    if let Some(outcome) = &record.outcome {
                        return outcome.clone();
                    }
                }
            }
            state.wait(&self.job_done);
        }
    }

    /// Raises job `id`'s cancel flag. A queued job is finalized immediately;
    /// a running one aborts at the engine's next branch-and-bound node.
    pub fn cancel(&self, id: u64) -> Result<JobState, String> {
        let mut state = self.state.lock();
        let Some(record) = state.records.get_mut(&id) else {
            return Err(format!("unknown job {id}"));
        };
        record.cancel.cancel();
        let was = record.state;
        if was == JobState::Queued {
            // Finalize now so JOBS/wait reflect the cancellation without
            // waiting for a free worker, and drop the spec from the queue
            // immediately — a verbose job's event channel lives inside the
            // spec, and its waiting connection unblocks only when the
            // sender is dropped.
            record.state = JobState::Cancelled;
            record.outcome = Some(JobOutcome::Error(format!(
                "job {id} cancelled while queued"
            )));
            record.finished = Some(Instant::now());
            state.queue.retain(|(queued_id, _)| *queued_id != id);
            self.depth.set(state.queue.len() as i64);
            drop(state);
            self.job_done.notify_all();
        }
        Ok(was)
    }

    /// Every job ever submitted, in submission order.
    pub fn list(&self) -> Vec<JobInfo> {
        let now = Instant::now();
        let state = self.state.lock();
        state
            .history
            .iter()
            .filter_map(|id| {
                let record = state.records.get(id)?;
                Some(JobInfo {
                    id: *id,
                    state: record.state,
                    description: record.description.clone(),
                    queued_ns: record.queued_ns(now),
                    running_ns: record.running_ns(now),
                    reason: record.watchdog_fired.then_some("watchdog"),
                })
            })
            .collect()
    }

    /// The tracer attached to job `id`, if the job carried one (solves
    /// submitted over the daemon protocol do).
    pub fn trace(&self, id: u64) -> Result<kdc_obs::Tracer, String> {
        let state = self.state.lock();
        match state.records.get(&id) {
            None => Err(format!("unknown job {id}")),
            Some(record) => record
                .trace
                .clone()
                .ok_or_else(|| format!("job {id} has no trace (only solves are traced)")),
        }
    }

    /// Stops the pool: cancels everything outstanding and wakes all workers
    /// and waiters. Idempotent.
    pub fn shutdown(&self) {
        let mut state = self.state.lock();
        state.shutdown = true;
        let now = Instant::now();
        for record in state.records.values_mut() {
            record.cancel.cancel();
            if record.state == JobState::Queued {
                record.state = JobState::Cancelled;
                record.outcome = Some(JobOutcome::Error("server shutting down".to_string()));
                record.finished = Some(now);
            }
        }
        state.queue.clear();
        self.depth.set(0);
        drop(state);
        self.work_ready.notify_all();
        self.job_done.notify_all();
    }

    /// Graceful drain: stops admitting new jobs, then blocks until every
    /// queued and running job has finished *with its real outcome* (no
    /// cancellation), and finally shuts the pool down. Waiters and verbose
    /// event streams of in-flight jobs complete normally. Idempotent with
    /// [`JobQueue::shutdown`]: if a shutdown races in, the wait ends too.
    pub fn drain(&self) {
        let mut state = self.state.lock();
        state.draining = true;
        while !state.shutdown && (!state.queue.is_empty() || state.running > 0) {
            state.wait(&self.job_done);
        }
        state.shutdown = true;
        drop(state);
        self.work_ready.notify_all();
        self.job_done.notify_all();
    }

    /// Watchdog sweep: cancels every running job that neither carries its
    /// own deadline/node budget nor was already swept, once it has been
    /// executing longer than `default_deadline`. The cancellation is the
    /// usual cooperative flag; the finish bookkeeping turns the eventual
    /// outcome into `failed reason=watchdog`. Returns the number of jobs
    /// swept this call.
    pub fn watchdog_sweep(&self, default_deadline: Duration) -> usize {
        let now = Instant::now();
        let mut swept = 0;
        let mut state = self.state.lock();
        for record in state.records.values_mut() {
            if record.state != JobState::Running || record.has_deadline || record.watchdog_fired {
                continue;
            }
            let running = record
                .started
                .map(|s| now.saturating_duration_since(s))
                .unwrap_or_default();
            if running > default_deadline {
                record.watchdog_fired = true;
                record.cancel.cancel();
                self.watchdog_kills.inc();
                swept += 1;
            }
        }
        swept
    }

    /// Worker side: blocks for the next job, or `None` on shutdown.
    fn next_job(&self) -> Option<(u64, JobSpec, CancelFlag)> {
        let mut state = self.state.lock();
        loop {
            if state.shutdown {
                return None;
            }
            if let Some((id, spec)) = state.queue.pop_front() {
                // A record missing its entry (impossible today, but cheap to
                // tolerate) or already finalized (cancelled while queued) is
                // skipped, not panicked over.
                let Some(record) = state.records.get_mut(&id) else {
                    continue;
                };
                if record.state != JobState::Queued {
                    continue;
                }
                record.state = JobState::Running;
                let now = Instant::now();
                record.started = Some(now);
                let wait_ns = record.queued_ns(now);
                let flag = record.cancel.clone();
                state.running += 1;
                self.depth.set(state.queue.len() as i64);
                self.queue_wait_ns.observe(wait_ns);
                return Some((id, spec, flag));
            }
            state.wait(&self.work_ready);
        }
    }

    /// Worker side: publishes the outcome and wakes waiters (including a
    /// drain blocked on the running set).
    fn finish(&self, id: u64, state_after: JobState, outcome: JobOutcome) {
        let now = Instant::now();
        let mut state = self.state.lock();
        state.running = state.running.saturating_sub(1);
        if let Some(record) = state.records.get_mut(&id) {
            if record.watchdog_fired {
                // The watchdog, not the client, stopped this job: whatever
                // the engine reported, the operator-visible truth is a
                // deadline kill.
                record.state = JobState::Failed;
                record.outcome = Some(JobOutcome::Error(format!(
                    "job {id} killed by watchdog (exceeded the default deadline)"
                )));
            } else {
                record.state = state_after;
                record.outcome = Some(outcome);
            }
            record.finished = Some(now);
            self.job_duration_ns.observe(record.running_ns(now));
        }
        drop(state);
        self.job_done.notify_all();
    }
}

/// When faults are armed, wraps a job's observer (installing one if the job
/// had none) so the `solve_node` point is checked on every search event.
/// `Error`/`DropConnection` raise the job's cooperative cancel flag — the
/// engine aborts at its next node, exactly like `CANCEL <id>`. Disabled
/// faults leave the observer untouched: zero overhead on the search path.
fn with_solve_node_faults(
    observer: Option<Arc<dyn Observer>>,
    cancel: CancelFlag,
) -> Option<Arc<dyn Observer>> {
    if !kdc_faults::enabled() {
        return observer;
    }
    let counter = kdc_obs::registry().register_counter("kdc_service_faults_injected_total");
    Some(Arc::new(move |event: &kdc_api::Event| {
        if let Some(action) = kdc_faults::check(kdc_faults::Point::SolveNode) {
            counter.inc();
            match action {
                kdc_faults::Action::Delay(d) => std::thread::sleep(d),
                kdc_faults::Action::Error
                | kdc_faults::Action::DropConnection
                | kdc_faults::Action::TornWrite => cancel.cancel(),
                kdc_faults::Action::Panic => kdc_faults::panic_now(kdc_faults::Point::SolveNode),
            }
        }
        if let Some(inner) = &observer {
            inner.event(event);
        }
    }) as Arc<dyn Observer>)
}

/// Executes one job spec with the given cancel flag; a pure dispatch onto
/// the entry's [`kdc_api::Session`], so it is unit-testable without a pool.
/// A batch runs through `Session::run_batch_observed` rather than the
/// folded `Query::Batch` surface, so its per-sub-query outcomes and
/// shared-work counters survive into [`JobOutcome::Batch`].
pub fn run_job(spec: &JobSpec, cancel: CancelFlag) -> JobOutcome {
    let budget = spec.budget.clone().with_cancel(cancel.clone());
    let observer = with_solve_node_faults(spec.observer.as_ref().map(|o| o.0.clone()), cancel);
    let session = spec.entry.session();
    let trace = spec.trace.clone();
    let outcome = match &spec.query {
        Query::Batch(subs) => session
            .run_batch_observed(subs, &budget, &spec.options, observer, trace)
            .map(|batch| JobOutcome::Batch(Box::new(batch))),
        query => session
            .run_observed(query, &budget, &spec.options, observer, trace)
            .map(|outcome| JobOutcome::Done(Box::new(outcome))),
    };
    outcome.unwrap_or_else(JobOutcome::Error)
}

/// A fixed pool of worker threads draining a shared [`JobQueue`].
pub struct WorkerPool {
    queue: Arc<JobQueue>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) on `queue`. Fails with the
    /// OS error if no worker thread could be spawned at all; a partially
    /// spawned pool (resource exhaustion mid-loop) is returned and simply
    /// runs narrower.
    pub fn new(queue: Arc<JobQueue>, workers: usize) -> std::io::Result<Self> {
        let workers = workers.max(1);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let queue = queue.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("kdc-worker-{i}"))
                .spawn(move || worker_loop(&queue));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) if handles.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        Ok(WorkerPool { queue, handles })
    }

    /// Shuts the queue down and joins every worker.
    pub fn join(self) {
        self.queue.shutdown();
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &JobQueue) {
    while let Some((id, spec, cancel)) = queue.next_job() {
        if cancel.is_cancelled() {
            queue.finish(
                id,
                JobState::Cancelled,
                JobOutcome::Error(format!("job {id} cancelled")),
            );
            continue;
        }
        // Panic isolation: a job that panics must still publish an outcome
        // (or its waiter blocks forever) and must not kill the pool worker.
        // The job_start fault point runs *inside* the isolation boundary so
        // an injected panic exercises the same recovery path a real one
        // would.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(action) = kdc_faults::check(kdc_faults::Point::JobStart) {
                queue.faults_injected.inc();
                match action {
                    kdc_faults::Action::Delay(d) => std::thread::sleep(d),
                    kdc_faults::Action::Error
                    | kdc_faults::Action::DropConnection
                    | kdc_faults::Action::TornWrite => {
                        return JobOutcome::Error(format!("job {id}: fault injected at job_start"));
                    }
                    kdc_faults::Action::Panic => kdc_faults::panic_now(kdc_faults::Point::JobStart),
                }
            }
            run_job(&spec, cancel)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            JobOutcome::Error(format!("job {id} panicked: {msg}"))
        });
        let state_after = match &outcome {
            JobOutcome::Done(outcome) if outcome.status == Status::Cancelled => JobState::Cancelled,
            JobOutcome::Batch(batch) if batch.status() == Status::Cancelled => JobState::Cancelled,
            JobOutcome::Error(_) => JobState::Failed,
            JobOutcome::Done(_) | JobOutcome::Batch(_) => JobState::Done,
        };
        // The record keeps the job's tracer for `TRACE <id>` as long as the
        // daemon runs: keep only the spans recorded, not the whole ring.
        if let Some(trace) = &spec.trace {
            trace.shrink_to_fit();
        }
        queue.finish(id, state_after, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::GraphCache;
    use kdc_api::SubQuery;
    use kdc_graph::{gen, named};

    fn figure2_entry() -> Arc<GraphEntry> {
        let cache = GraphCache::new();
        cache.insert("fig2", named::figure2())
    }

    fn solve_spec(entry: Arc<GraphEntry>, k: usize, preset: &str) -> JobSpec {
        JobSpec {
            options: Options::preset(preset).expect("known preset"),
            ..JobSpec::new(entry, Query::Solve { k })
        }
    }

    fn top_r(k: usize, r: usize) -> Query {
        Query::TopR {
            k,
            r,
            diversify: false,
        }
    }

    #[test]
    fn jobs_describe_their_query() {
        let entry = figure2_entry();
        let batch = JobSpec {
            options: Options::preset("kdbb").unwrap(),
            ..JobSpec::new(
                entry.clone(),
                Query::Batch((0..=2).map(SubQuery::solve).collect()),
            )
        };
        let count = JobSpec::new(entry.clone(), Query::Count { k: 1, min_size: 5 });
        assert_eq!(
            solve_spec(entry.clone(), 2, "kdc").describe(),
            "solve(fig2,k=2,preset=kdc)"
        );
        assert_eq!(batch.describe(), "batch(fig2,k=0..2,preset=kdbb)");
        assert_eq!(
            JobSpec::new(entry, top_r(1, 2)).describe(),
            "enumerate(fig2,k=1,top=2)"
        );
        assert_eq!(count.describe(), "count(fig2,k=1,min=5)");
    }

    #[test]
    fn pool_runs_solve_jobs_and_memoizes() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 2).expect("spawn pool");
        let spec = solve_spec(entry.clone(), 2, "kdc");
        let first = queue.submit(spec.clone());
        let JobOutcome::Done(outcome) = queue.wait(first) else {
            panic!("expected a solve outcome");
        };
        assert_eq!(outcome.size(), 6);
        assert!(!outcome.cache.result_memo_hit);

        let second = queue.submit(spec);
        let JobOutcome::Done(outcome) = queue.wait(second) else {
            panic!("expected a solve outcome");
        };
        assert_eq!(outcome.size(), 6);
        assert!(
            outcome.cache.result_memo_hit,
            "second identical solve must hit the memo"
        );
        assert_eq!(
            entry.session().counters().solves,
            1,
            "only one real solve executed"
        );
        pool.join();
    }

    #[test]
    fn warm_solve_resumes_the_resident_reducer() {
        // End-to-end through run_job: two identical solves with different
        // presets (dodging the result memo) must build the reducer once and
        // resume it once, with identical answers.
        let mut rng = kdc_graph::gen::seeded_rng(31);
        let (g, _) = kdc_graph::gen::planted_defective_clique(200, 12, 2, 0.03, &mut rng);
        let cache = GraphCache::new();
        let entry = cache.insert("planted", g);
        let JobOutcome::Done(first) =
            run_job(&solve_spec(entry.clone(), 2, "kdc"), CancelFlag::new())
        else {
            panic!("expected solve outcome");
        };
        let counters = entry.session().counters();
        assert_eq!(
            (counters.ctcp_builds, counters.ctcp_resumes),
            (1, 0),
            "cold solve builds"
        );
        let JobOutcome::Done(second) =
            run_job(&solve_spec(entry.clone(), 2, "kdbb"), CancelFlag::new())
        else {
            panic!("expected solve outcome");
        };
        assert!(
            !second.cache.result_memo_hit,
            "different preset must not hit the memo"
        );
        assert_eq!(first.size(), second.size());
        let counters = entry.session().counters();
        // kdbb shares kdc's (rr5, rr6) = (true, true) rule set, so the
        // second solve resumes the same resident reducer.
        assert_eq!(
            (counters.ctcp_builds, counters.ctcp_resumes),
            (1, 1),
            "warm solve must resume"
        );
        assert_eq!(
            second.stats.ctcp_vertex_removals, 0,
            "resumed reducer already at the fixpoint for this bound"
        );
        assert_eq!(
            entry.session().best_known(2).unwrap().len(),
            first.size(),
            "witness recorded for seeding"
        );
    }

    #[test]
    fn queued_job_cancel_is_immediate() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        // No workers: the job stays queued forever unless cancel finalizes it.
        let id = queue.submit(solve_spec(entry, 1, "kdc"));
        assert_eq!(queue.cancel(id).unwrap(), JobState::Queued);
        assert!(matches!(queue.wait(id), JobOutcome::Error(_)));
        assert_eq!(queue.list()[0].state, JobState::Cancelled);
        assert!(queue.cancel(999).is_err());
    }

    #[test]
    fn cancelling_a_queued_verbose_job_releases_its_event_channel() {
        // A verbose connection drains the job's event channel until the
        // sender drops. Cancelling a *queued* job must drop its spec (and
        // with it the sender) immediately — not when some worker eventually
        // pops it — or the connection hangs behind unrelated jobs.
        use std::sync::mpsc;
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new()); // deliberately no workers
        let (tx, rx) = mpsc::channel::<kdc_api::Event>();
        let tx = std::sync::Mutex::new(tx);
        let observer: Arc<dyn kdc_api::Observer> = Arc::new(move |e: &kdc_api::Event| {
            let _ = tx.lock().expect("poisoned").send(*e);
        });
        let id = queue.submit(JobSpec {
            observer: Some(JobObserver(observer)),
            ..solve_spec(entry, 2, "kdc")
        });
        queue.cancel(id).unwrap();
        assert!(
            rx.recv().is_err(),
            "sender must be dropped with the queued spec"
        );
        assert!(matches!(queue.wait(id), JobOutcome::Error(_)));
    }

    #[test]
    fn running_job_cancel_aborts_search() {
        let mut rng = gen::seeded_rng(42);
        let cache = GraphCache::new();
        let entry = cache.insert("hard", gen::gnp(220, 0.5, &mut rng));
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        let id = queue.submit(solve_spec(entry, 12, "kdc"));
        // Wait for it to leave the queue, then cancel mid-search.
        loop {
            let info = &queue.list()[0];
            if info.state != JobState::Queued {
                break;
            }
            std::thread::yield_now();
        }
        queue.cancel(id).unwrap();
        let JobOutcome::Done(outcome) = queue.wait(id) else {
            panic!("expected a solve outcome");
        };
        assert_eq!(outcome.status, Status::Cancelled);
        assert_eq!(queue.list()[0].state, JobState::Cancelled);
        pool.join();
    }

    #[test]
    fn failing_query_fails_the_job() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        // The session rejects an empty top-r pool.
        let id = queue.submit(JobSpec::new(entry, top_r(1, 0)));
        assert!(matches!(queue.wait(id), JobOutcome::Error(_)));
        assert_eq!(queue.list()[0].state, JobState::Failed);
        pool.join();
    }

    #[test]
    fn node_limited_job_reports_best_effort() {
        let mut rng = gen::seeded_rng(77);
        let cache = GraphCache::new();
        let entry = cache.insert("dense", gen::gnp(80, 0.5, &mut rng));
        let spec = JobSpec {
            budget: Budget::default().with_node_limit(1),
            ..solve_spec(entry, 6, "kdc_t")
        };
        let JobOutcome::Done(outcome) = run_job(&spec, CancelFlag::new()) else {
            panic!("expected solve outcome");
        };
        assert_eq!(outcome.status, Status::NodeLimitReached);
    }

    #[test]
    fn enumerate_jobs_work() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        let id = queue.submit(JobSpec::new(entry, top_r(1, 2)));
        let JobOutcome::Done(outcome) = queue.wait(id) else {
            panic!("expected an enumerate outcome");
        };
        assert_eq!(outcome.witnesses.len(), 2);
        assert_eq!(outcome.witnesses[0].len(), 5);
        pool.join();
    }

    #[test]
    fn count_jobs_work() {
        let entry = figure2_entry();
        let direct = kdc::counting::count_k_defective_cliques(entry.graph(), 1, 5);
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        let id = queue.submit(JobSpec::new(entry, Query::Count { k: 1, min_size: 5 }));
        let JobOutcome::Done(outcome) = queue.wait(id) else {
            panic!("expected a count outcome");
        };
        assert_eq!(outcome.counts.unwrap(), direct);
        pool.join();
    }

    #[test]
    fn submit_after_shutdown_fails_fast() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        queue.shutdown();
        pool.join();
        // No workers remain; wait() must still return, not block forever.
        let id = queue.submit(solve_spec(entry, 1, "kdc"));
        assert!(matches!(queue.wait(id), JobOutcome::Error(_)));
        let listed = queue.list();
        assert_eq!(listed.last().unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn cancelled_enumerate_is_not_reported_complete() {
        let mut rng = gen::seeded_rng(77);
        let cache = GraphCache::new();
        // Dense enough that full maximal enumeration far outlives the poll
        // loop below.
        let entry = cache.insert("dense", gen::gnp(80, 0.5, &mut rng));
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        let id = queue.submit(JobSpec::new(entry, top_r(2, usize::MAX)));
        loop {
            if queue.list()[0].state != JobState::Queued {
                break;
            }
            std::thread::yield_now();
        }
        queue.cancel(id).unwrap();
        let JobOutcome::Done(outcome) = queue.wait(id) else {
            panic!("expected an enumerate outcome");
        };
        assert_eq!(
            outcome.status,
            Status::Cancelled,
            "truncated enumeration must not claim completion"
        );
        assert_eq!(queue.list()[0].state, JobState::Cancelled);
        pool.join();
    }

    #[test]
    fn try_submit_enforces_queue_depth() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new()); // no workers: jobs stay queued
        let first = queue
            .try_submit(solve_spec(entry.clone(), 1, "kdc"), 1)
            .expect("first job admitted");
        match queue.try_submit(solve_spec(entry.clone(), 1, "kdc"), 1) {
            Err(SubmitError::Busy { depth }) => assert_eq!(depth, 1),
            other => panic!("expected busy, got {other:?}"),
        }
        // A rejected submit leaves no JOBS row behind.
        assert_eq!(queue.list().len(), 1);
        // Unlimited depth (0) always admits.
        queue
            .try_submit(solve_spec(entry.clone(), 1, "kdc"), 0)
            .expect("unlimited depth admits");
        queue.cancel(first).unwrap();
        // Cancelling freed the slot.
        queue
            .try_submit(solve_spec(entry, 1, "kdc"), 2)
            .expect("slot freed after cancel");
        queue.shutdown();
    }

    #[test]
    fn try_submit_refuses_during_drain_and_shutdown() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        queue.drain();
        assert_eq!(
            queue.try_submit(solve_spec(entry.clone(), 1, "kdc"), 0),
            Err(SubmitError::ShuttingDown)
        );
        pool.join();
        assert_eq!(
            queue.try_submit(solve_spec(entry, 1, "kdc"), 0),
            Err(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn drain_finishes_queued_jobs_with_real_outcomes() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        let ids: Vec<u64> = (0..4)
            .map(|_| queue.submit(solve_spec(entry.clone(), 2, "kdc")))
            .collect();
        queue.drain();
        for id in ids {
            let JobOutcome::Done(outcome) = queue.wait(id) else {
                panic!("drained job {id} must carry its real outcome");
            };
            assert_eq!(outcome.size(), 6);
        }
        assert!(
            queue.list().iter().all(|j| j.state == JobState::Done),
            "drain must not cancel queued work"
        );
        pool.join();
    }

    #[test]
    fn watchdog_kills_limit_less_running_job() {
        let mut rng = gen::seeded_rng(42);
        let cache = GraphCache::new();
        let entry = cache.insert("hard", gen::gnp(220, 0.5, &mut rng));
        let queue = Arc::new(JobQueue::new());
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        let id = queue.submit(solve_spec(entry.clone(), 12, "kdc"));
        loop {
            if queue.list()[0].state != JobState::Queued {
                break;
            }
            std::thread::yield_now();
        }
        // A sweep with a generous deadline leaves the young job alone.
        assert_eq!(queue.watchdog_sweep(Duration::from_secs(3600)), 0);
        // A zero deadline kills it: failed, reason=watchdog, typed error.
        loop {
            if queue.watchdog_sweep(Duration::ZERO) > 0 {
                break;
            }
            // The job may have finished already on a fast machine.
            if queue.list()[0].state != JobState::Running {
                pool.join();
                return;
            }
            std::thread::yield_now();
        }
        let JobOutcome::Error(msg) = queue.wait(id) else {
            panic!("watchdogged job must fail");
        };
        assert!(msg.contains("watchdog"), "{msg}");
        let info = &queue.list()[0];
        assert_eq!(info.state, JobState::Failed);
        assert_eq!(info.reason, Some("watchdog"));
        // Sweeps are one-shot per job: no double kill.
        assert_eq!(queue.watchdog_sweep(Duration::ZERO), 0);
        pool.join();
    }

    #[test]
    fn watchdog_exempts_jobs_with_their_own_budget() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        let spec = JobSpec {
            budget: Budget::default().with_time_limit(Duration::from_secs(60)),
            ..solve_spec(entry, 2, "kdc")
        };
        assert!(spec.has_deadline());
        // No workers: force the record into Running by hand is not possible
        // from outside, so assert via the spec classification plus a queued
        // sweep (queued jobs are never swept regardless).
        queue.submit(spec);
        assert_eq!(queue.watchdog_sweep(Duration::ZERO), 0);
        queue.shutdown();
    }

    #[test]
    fn shutdown_cancels_queued_jobs() {
        let entry = figure2_entry();
        let queue = Arc::new(JobQueue::new());
        let id = queue.submit(solve_spec(entry, 1, "kdc"));
        let pool = WorkerPool::new(queue.clone(), 1).expect("spawn pool");
        queue.shutdown();
        pool.join();
        // The queued job was either finished by a racing worker or
        // cancelled by shutdown — never left pending.
        let state = queue.list()[0].state;
        assert!(
            state == JobState::Cancelled || state == JobState::Done,
            "job {id} left in {state:?}"
        );
    }
}
