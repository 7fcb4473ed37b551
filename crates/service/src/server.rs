//! The TCP front end: accept loop, per-connection line handlers, dispatch.
//!
//! See the crate docs for the threading model. The accept loop runs on the
//! caller's thread ([`Server::run`]) or a dedicated one ([`Server::spawn`]);
//! each accepted connection gets its own handler thread that parses one
//! command per line and writes one response line back. `SHUTDOWN` raises a
//! flag and pokes the listener with a loopback connection so `accept`
//! returns without platform-specific non-blocking machinery.

use crate::cache::GraphCache;
use crate::jobs::{JobObserver, JobOutcome, JobQueue, JobSpec, SubmitError, WorkerPool};
use crate::persist::{Persist, PersistHandle};
use crate::protocol::{err_line, parse_command, render_vertices, Command, OkLine, ShutdownMode};
use kdc::Status;
use kdc_api::{Budget, Event, Observer, Options, Outcome, Query, SubQuery};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The `retry_after_ms` hint attached to `ERR busy` replies. A constant,
/// not a measurement: clients jitter around it anyway (see
/// [`request_with_retry`]), so a cheap fixed hint beats a queue estimate.
const RETRY_AFTER_MS: u64 = 50;

/// Shared daemon state: the graph cache, the job queue, the shutdown latch,
/// and the admission/lifecycle configuration (all atomics so builders and
/// handler threads never contend on a lock).
struct Daemon {
    cache: GraphCache,
    queue: Arc<JobQueue>,
    shutdown: AtomicBool,
    /// `SHUTDOWN mode=drain` was requested: finish outstanding jobs before
    /// the pool goes down (checked by `run` after the accept loop exits).
    drain: AtomicBool,
    addr: SocketAddr,
    /// Slow-query threshold in nanoseconds; solves at or above it are
    /// logged to stderr with their phase breakdown. `u64::MAX` disables.
    slow_threshold_ns: AtomicU64,
    /// Max concurrent connections (0 = unlimited).
    max_conns: AtomicUsize,
    /// Max queued jobs before the query verbs (`SOLVE`, `MSOLVE`,
    /// `ENUMERATE`, `COUNT`) answer busy (0 = unlimited).
    max_queue: AtomicUsize,
    /// Per-connection idle read/write timeout in ms (0 = none).
    idle_timeout_ms: AtomicU64,
    /// Watchdog default deadline in ms for limit-less jobs (0 = no watchdog).
    watchdog_ms: AtomicU64,
    /// Connections currently being served (admission-control numerator).
    active_conns: AtomicUsize,
    /// Registry twin counting slow-query log entries.
    slow_queries: kdc_obs::Counter,
    /// Admissions refused (connection cap or queue depth).
    busy_rejections: kdc_obs::Counter,
    /// Connections closed by the idle read/write timeout.
    conn_timeouts: kdc_obs::Counter,
    /// Connections closed on a real I/O error (not clean EOF, not timeout).
    conn_errors: kdc_obs::Counter,
    /// Faults injected at the connection-level points (accept/read/write).
    faults_injected: kdc_obs::Counter,
    /// Durable session state, armed by [`Server::with_state_dir`]; absent
    /// (the default) the daemon runs purely in-memory as before.
    persist: OnceLock<PersistHandle>,
}

impl Daemon {
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Poke the accept loop awake. A wildcard bind address
            // (0.0.0.0 / ::) is not a connectable destination, so aim the
            // poke at loopback on the bound port. Errors are fine (the
            // listener may already be gone).
            let ip = if self.addr.ip().is_unspecified() {
                match self.addr {
                    SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                }
            } else {
                self.addr.ip()
            };
            let poke = SocketAddr::new(ip, self.addr.port());
            let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
        }
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    daemon: Arc<Daemon>,
    workers: usize,
}

/// Handle to a server running on a background thread (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port 0 bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to shut down. A panicked accept loop is
    /// reported as an I/O error, not propagated as a panic.
    pub fn join(self) -> std::io::Result<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with a pool
    /// of `workers` solver threads.
    pub fn bind(addr: &str, workers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let r = kdc_obs::registry();
        Ok(Server {
            listener,
            daemon: Arc::new(Daemon {
                cache: GraphCache::new(),
                queue: Arc::new(JobQueue::new()),
                shutdown: AtomicBool::new(false),
                drain: AtomicBool::new(false),
                addr,
                slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD.as_nanos() as u64),
                max_conns: AtomicUsize::new(0),
                max_queue: AtomicUsize::new(0),
                idle_timeout_ms: AtomicU64::new(0),
                watchdog_ms: AtomicU64::new(0),
                active_conns: AtomicUsize::new(0),
                slow_queries: r.register_counter("kdc_service_slow_queries_total"),
                busy_rejections: r.register_counter("kdc_service_busy_rejections_total"),
                conn_timeouts: r.register_counter("kdc_service_conn_timeouts_total"),
                conn_errors: r.register_counter("kdc_service_conn_errors_total"),
                faults_injected: r.register_counter("kdc_service_faults_injected_total"),
                persist: OnceLock::new(),
            }),
            workers,
        })
    }

    /// Arms durable session state: opens (or creates) the snapshot/journal
    /// store in `dir`, replays whatever a previous process left there —
    /// including a torn tail from a mid-write kill, which is truncated to
    /// the last valid record — rehydrates every recovered graph whose
    /// source file still hashes to the snapshot's content hash, and from
    /// then on journals each newly proven outcome. See the `persist`
    /// module and the `kdc_store` crate.
    ///
    /// # Errors
    ///
    /// Fails when the state directory cannot be created or its files
    /// cannot be read; a *damaged* store is not an error (the damaged
    /// suffix is dropped and counted in `kdc_store_*_dropped_total`).
    pub fn with_state_dir(self, dir: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let (store, recovered) = kdc_store::Store::open(dir.as_ref())?;
        let persist = Arc::new(Persist::new(store));
        persist.recover(&self.daemon.cache, &recovered);
        if self.daemon.persist.set(persist).is_err() {
            return Err("state directory already configured".to_string());
        }
        Ok(self)
    }

    /// Sets the slow-query threshold (default [`DEFAULT_SLOW_THRESHOLD`]):
    /// solves whose wall-clock reaches it are logged to stderr with their
    /// per-phase time breakdown. `Duration::ZERO` logs every solve.
    pub fn with_slow_threshold(self, threshold: Duration) -> Self {
        let ns = threshold.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.daemon.slow_threshold_ns.store(ns, Ordering::Relaxed);
        self
    }

    /// Admission control: at most `max_conns` concurrent connections (extra
    /// accepts get one `ERR busy active_conns=..` line and are closed) and
    /// at most `max_queue` queued jobs (extra `SOLVE`/`MSOLVE`/`ENUMERATE`/
    /// `COUNT` requests get `ERR busy queue_depth=..`). 0 = unlimited (the
    /// default).
    pub fn with_limits(self, max_conns: usize, max_queue: usize) -> Self {
        self.daemon.max_conns.store(max_conns, Ordering::Relaxed);
        self.daemon.max_queue.store(max_queue, Ordering::Relaxed);
        self
    }

    /// Per-connection idle timeout: a connection whose socket stays silent
    /// (no readable bytes, or an unwritable peer) for `timeout` is counted
    /// in `kdc_service_conn_timeouts_total` and closed — the defense
    /// against half-open clients holding handler threads forever.
    /// `Duration::ZERO` disables (the default).
    pub fn with_idle_timeout(self, timeout: Duration) -> Self {
        let ms = timeout.as_millis().min(u128::from(u64::MAX)) as u64;
        self.daemon.idle_timeout_ms.store(ms, Ordering::Relaxed);
        self
    }

    /// Watchdog: jobs submitted *without* their own `limit=`/`nodes=`
    /// budget are cooperatively cancelled once they have been running for
    /// `deadline`, and reported as `failed reason=watchdog` in `JOBS`.
    /// `Duration::ZERO` disables (the default).
    pub fn with_watchdog(self, deadline: Duration) -> Self {
        let ms = deadline.as_millis().min(u128::from(u64::MAX)) as u64;
        self.daemon.watchdog_ms.store(ms, Ordering::Relaxed);
        self
    }

    /// Caps the graph cache at `capacity` resident graphs, evicting the
    /// least recently used on overflow (`kdc_service_cache_evictions_total`,
    /// `cache_evictions=` in server-wide `STATS`). 0 = unlimited (the
    /// default).
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.daemon.cache.set_capacity(capacity);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.addr
    }

    /// Runs the accept loop on the current thread until `SHUTDOWN`. With
    /// `mode=drain`, queued and running jobs finish (and answer their
    /// waiters) before the pool is torn down; the default `mode=abort`
    /// cancels them cooperatively.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            daemon,
            workers,
        } = self;
        let pool = WorkerPool::new(daemon.queue.clone(), workers)?;
        let watchdog = spawn_watchdog(&daemon)?;
        for stream in listener.incoming() {
            if daemon.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            // Connection admission: over the cap, the client gets one typed
            // busy line (best effort — it may only see the hangup) and the
            // socket is closed without spawning a handler.
            let cap = daemon.max_conns.load(Ordering::Relaxed);
            let active = daemon.active_conns.load(Ordering::Relaxed);
            if cap > 0 && active >= cap {
                daemon.busy_rejections.inc();
                let busy = err_line(&format!(
                    "busy active_conns={active} retry_after_ms={RETRY_AFTER_MS}"
                ));
                let _ = stream.write_all(format!("{busy}\n").as_bytes());
                continue;
            }
            daemon.active_conns.fetch_add(1, Ordering::Relaxed);
            let conn_daemon = daemon.clone();
            // Handler threads are detached: they die with the connection
            // (client EOF) or with the process; joining them could block
            // shutdown on a client that never hangs up.
            let spawned = std::thread::Builder::new()
                .name("kdc-conn".to_string())
                .spawn(move || {
                    // The guard decrements the active-connection count on
                    // every exit path, including an unwinding fault panic.
                    let _guard = ConnGuard(&conn_daemon);
                    handle_connection(stream, &conn_daemon);
                });
            if spawned.is_err() {
                // Never spawned, so the guard never ran.
                daemon.active_conns.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if daemon.drain.load(Ordering::SeqCst) {
            // Graceful drain: block until every queued and running job has
            // published its real outcome (waiting connections and verbose
            // event streams complete), then stop the pool.
            daemon.queue.drain();
        }
        daemon.queue.shutdown();
        pool.join();
        if let Some((stop, thread)) = watchdog {
            stop.store(true, Ordering::Relaxed);
            let _ = thread.join();
        }
        // Final fold: every worker has finished, so the snapshot written
        // here captures the complete end-of-life session state (best
        // effort, like every other store write).
        if let Some(persist) = daemon.persist.get() {
            persist.compact_now(&daemon.cache);
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread; returns immediately.
    /// Fails with the OS error if the thread cannot be spawned.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        let thread = std::thread::Builder::new()
            .name("kdc-accept".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, thread })
    }
}

/// Decrements the active-connection count when a handler thread exits, on
/// every path — clean EOF, error return, or an unwinding injected panic.
struct ConnGuard<'a>(&'a Daemon);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Spawns the watchdog thread when a deadline is configured. It polls at a
/// quarter of the deadline (clamped to 10–250 ms) and cooperatively cancels
/// limit-less jobs that overstay; the returned stop flag + handle are
/// flipped/joined by `run` after the pool exits.
#[allow(clippy::type_complexity)]
fn spawn_watchdog(
    daemon: &Arc<Daemon>,
) -> std::io::Result<Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>> {
    let ms = daemon.watchdog_ms.load(Ordering::Relaxed);
    if ms == 0 {
        return Ok(None);
    }
    let deadline = Duration::from_millis(ms);
    let poll = Duration::from_millis((ms / 4).clamp(10, 250));
    let stop = Arc::new(AtomicBool::new(false));
    let queue = daemon.queue.clone();
    let stop_flag = stop.clone();
    let thread = std::thread::Builder::new()
        .name("kdc-watchdog".to_string())
        .spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                queue.watchdog_sweep(deadline);
                std::thread::sleep(poll);
            }
        })?;
    Ok(Some((stop, thread)))
}

/// Longest accepted request line. Any real command (a filesystem path plus
/// a few options) is far below this; past it the sender is broken or
/// hostile and an unbounded `read_line` would buffer its bytes forever.
const MAX_LINE_BYTES: u64 = 64 * 1024;

/// Default slow-query threshold (see [`Server::with_slow_threshold`]).
pub const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_secs(1);

/// True when an I/O error is the idle-timeout deadline firing (blocking
/// sockets report `SO_RCVTIMEO`/`SO_SNDTIMEO` expiry as either kind,
/// platform-dependent).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn handle_connection(stream: TcpStream, daemon: &Daemon) {
    // The accept fault point runs here, on the handler thread, so an
    // injected panic kills exactly one connection and never the accept loop.
    if let Some(action) = kdc_faults::check(kdc_faults::Point::Accept) {
        daemon.faults_injected.inc();
        match action {
            kdc_faults::Action::Delay(d) => std::thread::sleep(d),
            kdc_faults::Action::Error | kdc_faults::Action::TornWrite => {
                let mut stream = stream;
                let _ = stream
                    .write_all(format!("{}\n", err_line("fault injected at accept")).as_bytes());
                return;
            }
            kdc_faults::Action::DropConnection => return,
            kdc_faults::Action::Panic => kdc_faults::panic_now(kdc_faults::Point::Accept),
        }
    }
    // Replies go out as soon as they are written: with Nagle's algorithm
    // on, every streamed line after the first (`MSOLVE`'s `RESULT` lines,
    // `verbose=1` `EVENT` lines) waits for the client's delayed ACK, tens
    // of milliseconds, since the client sends nothing until the final
    // line. A failure to set it only costs that latency.
    let _ = stream.set_nodelay(true);
    let idle_ms = daemon.idle_timeout_ms.load(Ordering::Relaxed);
    if idle_ms > 0 {
        // Socket options live on the underlying fd, shared with the clone
        // below. A failure to set them degrades to no timeout, which the
        // pre-`--idle-secs` daemon always ran with.
        let timeout = Some(Duration::from_millis(idle_ms));
        let _ = stream.set_read_timeout(timeout);
        let _ = stream.set_write_timeout(timeout);
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match (&mut reader).take(MAX_LINE_BYTES).read_line(&mut line) {
            Ok(0) => return, // clean EOF: the client is done, nothing to log
            Err(e) if is_timeout(&e) => {
                // Idle (possibly half-open) connection: reclaim the handler
                // thread. The goodbye line is best effort — a half-open
                // peer will never read it.
                daemon.conn_timeouts.inc();
                let _ =
                    writer.write_all(format!("{}\n", err_line("idle timeout, closing")).as_bytes());
                return;
            }
            Err(e) => {
                // A real transport error (reset, non-UTF-8 bytes, ...) is
                // not a hangup: count it and log it like a slow query.
                daemon.conn_errors.inc();
                eprintln!("kdc_service connection error: read failed: {e}");
                return;
            }
            Ok(_) => {}
        }
        if line.len() as u64 >= MAX_LINE_BYTES && !line.ends_with('\n') {
            // Oversized line: no way to resync mid-stream, so answer once
            // and hang up.
            let _ = writer.write_all(format!("{}\n", err_line("request line too long")).as_bytes());
            return;
        }
        if line.trim().is_empty() {
            continue;
        }
        // conn_read fault point: after a request line arrives, before it is
        // parsed. `Error` answers a typed line and keeps the connection.
        let mut injected: Option<String> = None;
        if let Some(action) = kdc_faults::check(kdc_faults::Point::ConnRead) {
            daemon.faults_injected.inc();
            match action {
                kdc_faults::Action::Delay(d) => std::thread::sleep(d),
                kdc_faults::Action::Error | kdc_faults::Action::TornWrite => {
                    injected = Some(err_line("fault injected at conn_read"));
                }
                kdc_faults::Action::DropConnection => return,
                kdc_faults::Action::Panic => kdc_faults::panic_now(kdc_faults::Point::ConnRead),
            }
        }
        let (response, shutdown) = match injected {
            Some(response) => (response, false),
            None => match parse_command(line.trim()) {
                Err(e) => (err_line(&e), false),
                Ok(command) => execute(command, daemon, &mut writer),
            },
        };
        // conn_write fault point: before the final response line goes out.
        // `Error` cannot be reported over the write it is failing, so both
        // it and `DropConnection` sever the connection with the response
        // unsent — exactly the torn-reply case clients must survive.
        if let Some(action) = kdc_faults::check(kdc_faults::Point::ConnWrite) {
            daemon.faults_injected.inc();
            match action {
                kdc_faults::Action::Delay(d) => std::thread::sleep(d),
                kdc_faults::Action::Error
                | kdc_faults::Action::DropConnection
                | kdc_faults::Action::TornWrite => return,
                kdc_faults::Action::Panic => kdc_faults::panic_now(kdc_faults::Point::ConnWrite),
            }
        }
        if let Err(e) = writer
            .write_all(format!("{response}\n").as_bytes())
            .and_then(|()| writer.flush())
        {
            if is_timeout(&e) {
                daemon.conn_timeouts.inc();
            } else {
                daemon.conn_errors.inc();
                eprintln!("kdc_service connection error: write failed: {e}");
            }
            return;
        }
        if shutdown {
            daemon.request_shutdown();
            return;
        }
    }
}

/// Executes one command; returns the final response line and whether to
/// shut down. A `SOLVE .. verbose=1` additionally streams `EVENT` lines to
/// `writer` while the search runs, before the final line is returned.
fn execute(command: Command, daemon: &Daemon, writer: &mut TcpStream) -> (String, bool) {
    let response = match command {
        Command::Load { path, name } => daemon.cache.load(&path, &name).map(|entry| {
            OkLine::new()
                .field("loaded", &entry.name)
                .field("n", entry.graph().n())
                .field("m", entry.graph().m())
                .field("parse_ms", entry.parse_time.as_millis())
                .render()
        }),
        Command::Solve {
            graph,
            k,
            preset,
            limit,
            nodes,
            threads,
            verbose,
        } => job_spec(
            daemon,
            &graph,
            Query::Solve { k },
            preset,
            limit,
            nodes,
            threads,
        )
        .and_then(|spec| solve(daemon, spec, verbose, writer)),
        Command::MSolve {
            graph,
            k_lo,
            k_hi,
            r,
            preset,
            limit,
            nodes,
            threads,
        } => {
            let subs = (k_lo..=k_hi)
                .map(|k| SubQuery { k, r, preset: None })
                .collect();
            job_spec(
                daemon,
                &graph,
                Query::Batch(subs),
                preset,
                limit,
                nodes,
                threads,
            )
            .and_then(|spec| msolve(daemon, spec, writer))
        }
        Command::Enumerate { graph, k, top } => {
            let query = Query::TopR {
                k,
                r: top,
                diversify: false,
            };
            job_spec(daemon, &graph, query, None, None, None, 1)
                .and_then(|spec| enumerate(daemon, spec))
        }
        Command::Count { graph, k, min_size } => {
            let query = Query::Count { k, min_size };
            job_spec(daemon, &graph, query, None, None, None, 1)
                .and_then(|spec| count(daemon, spec, min_size))
        }
        Command::Stats { graph } => stats(daemon, graph.as_deref()),
        Command::Unload { graph } => {
            if daemon.cache.unload(&graph) {
                Ok(OkLine::new().field("unloaded", &graph).render())
            } else {
                Err(format!("no graph named {graph:?}"))
            }
        }
        Command::Jobs => {
            let jobs = daemon.queue.list();
            let rendered: Vec<String> = jobs
                .iter()
                .map(|j| {
                    // `:reason=..` appears only when the daemon (today: the
                    // watchdog) decided the job's fate, so rows of ordinary
                    // jobs keep their historical shape.
                    let reason = j.reason.map(|r| format!(":reason={r}")).unwrap_or_default();
                    format!(
                        "{}:{}:{}:queued_ns={}:running_ns={}{reason}",
                        j.id,
                        j.state.as_str(),
                        j.description,
                        j.queued_ns,
                        j.running_ns
                    )
                })
                .collect();
            Ok(OkLine::new()
                .field("count", jobs.len())
                .field("jobs", rendered.join(";"))
                .render())
        }
        Command::Cancel { id } => daemon.queue.cancel(id).map(|was| {
            OkLine::new()
                .field("cancelled", id)
                .field("was", was.as_str())
                .render()
        }),
        Command::Metrics => metrics(writer),
        Command::Trace { id } => daemon.queue.trace(id).map(|trace| {
            OkLine::new()
                .field("job", id)
                .field("spans", trace.len())
                .field("dropped", trace.dropped())
                .field("trace", trace.export_chrome_json())
                .render()
        }),
        Command::Faults { plan } => faults_verb(plan.as_deref()),
        Command::Shutdown { mode } => {
            if mode == ShutdownMode::Drain {
                daemon.drain.store(true, Ordering::SeqCst);
            }
            return (
                OkLine::new()
                    .field("shutdown", "ok")
                    .field("mode", mode.as_str())
                    .render(),
                true,
            );
        }
    };
    match response {
        Ok(line) => (line, false),
        Err(e) => (err_line(&e), false),
    }
}

/// The debug-only `FAULTS` verb: status / install / disarm. Release builds
/// refuse, so a production daemon cannot be fault-armed over the wire (the
/// `KDC_FAULTS` environment variable at startup works in any build).
#[cfg(debug_assertions)]
fn faults_verb(plan: Option<&str>) -> Result<String, String> {
    match plan {
        None => Ok(OkLine::new().field("faults", kdc_faults::status()).render()),
        Some("off") => {
            kdc_faults::disarm_all();
            Ok(OkLine::new().field("faults", "off").render())
        }
        Some(plan) => kdc_faults::install_plan(plan).map(|rules| {
            OkLine::new()
                .field("faults", "armed")
                .field("rules", rules)
                .render()
        }),
    }
}

#[cfg(not(debug_assertions))]
fn faults_verb(_plan: Option<&str>) -> Result<String, String> {
    Err("FAULTS requires a debug build (set KDC_FAULTS at startup instead)".to_string())
}

/// Submits through the admission bound, translating a refusal into the
/// typed `busy` error line (`retry_after_ms` is the client backoff hint).
fn submit_checked(daemon: &Daemon, spec: JobSpec) -> Result<u64, String> {
    let max_queue = daemon.max_queue.load(Ordering::Relaxed);
    daemon
        .queue
        .try_submit(spec, max_queue)
        .map_err(|e| match e {
            SubmitError::Busy { depth } => {
                daemon.busy_rejections.inc();
                format!("busy queue_depth={depth} retry_after_ms={RETRY_AFTER_MS}")
            }
            SubmitError::ShuttingDown => "server shutting down".to_string(),
        })
}

/// Streams the global registry as `METRIC <line>` lines onto the
/// connection; the returned final line reports the number of sample lines
/// (exposition lines that are not `# TYPE` headers). A dead client cannot
/// be told about write failures; the final line's delivery is attempted by
/// the caller like any other response.
fn metrics(writer: &mut TcpStream) -> Result<String, String> {
    let text = kdc_obs::registry().render_prometheus();
    let mut series = 0usize;
    for line in text.lines() {
        if !line.starts_with('#') {
            series += 1;
        }
        let _ = writer.write_all(format!("METRIC {line}\n").as_bytes());
    }
    let _ = writer.flush();
    Ok(OkLine::new().field("series", series).render())
}

/// Builds the job for one query verb at the protocol edge: looks up the
/// cached graph and validates the preset (`kdc` when omitted), so a bad
/// request answers `ERR` without ever becoming a job or burning a worker.
fn job_spec(
    daemon: &Daemon,
    graph: &str,
    query: Query,
    preset: Option<String>,
    limit: Option<Duration>,
    nodes: Option<u64>,
    threads: usize,
) -> Result<JobSpec, String> {
    let entry = daemon
        .cache
        .get(graph)
        .ok_or_else(|| format!("no graph named {graph:?} (LOAD it first)"))?;
    Ok(JobSpec {
        options: Options::preset(preset.as_deref().unwrap_or("kdc"))?,
        budget: Budget {
            time_limit: limit,
            node_limit: nodes,
            threads,
            cancel: None,
        },
        ..JobSpec::new(entry, query)
    })
}

/// Attaches an observer that renders the events `render` accepts into
/// protocol lines and forwards them into a channel; the handler writes them
/// with [`drain_lines`] until the worker drops the job, and with it the
/// sender. The sender sits in a mutex only to keep the observer `Sync`.
fn attach_stream(
    spec: &mut JobSpec,
    render: fn(&Event) -> Option<String>,
) -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel::<String>();
    let tx = Mutex::new(tx);
    let observer: Arc<dyn Observer> = Arc::new(move |e: &Event| {
        // A poisoned sender mutex means an earlier event callback panicked;
        // dropping this event is strictly better than killing the whole job
        // with a second panic.
        if let Some(line) = render(e) {
            if let Ok(tx) = tx.lock() {
                let _ = tx.send(line);
            }
        }
    });
    spec.observer = Some(JobObserver(observer));
    rx
}

/// Writes streamed lines onto the connection until the job finishes. A dead
/// client cannot be told about it; keep draining so the job is never
/// blocked on the channel, and skip the writes.
fn drain_lines(lines: mpsc::Receiver<String>, writer: &mut TcpStream) {
    while let Ok(line) = lines.recv() {
        let _ = writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush());
    }
}

/// Waits for a single-query job: its outcome, or the job's error.
fn wait_outcome(daemon: &Daemon, id: u64) -> Result<Box<Outcome>, String> {
    match daemon.queue.wait(id) {
        JobOutcome::Done(outcome) => Ok(outcome),
        JobOutcome::Batch(_) => Err(format!("internal: job {id} returned a batch")),
        JobOutcome::Error(e) => Err(e),
    }
}

/// Renders one streamed event as an `EVENT` protocol line.
fn event_line(event: &Event) -> String {
    match *event {
        Event::Incumbent { size } => format!("EVENT type=incumbent size={size}"),
        Event::Retighten { vertices, edges } => {
            format!("EVENT type=retighten removed_v={vertices} removed_e={edges}")
        }
        Event::Restart { universe } => format!("EVENT type=restart universe={universe}"),
        // Batch sub-query completions get their own streamed prefix (the
        // MSOLVE handler turns them into `RESULT` lines); as a plain EVENT
        // they carry the same fields for verbose non-batch observers.
        Event::SubDone {
            index,
            k,
            size,
            status,
        } => format!(
            "EVENT type=subdone idx={index} k={k} size={size} status={}",
            status.as_token()
        ),
        Event::Done { status } => format!("EVENT type=done status={}", status.as_token()),
    }
}

/// The `MSOLVE` streamed line for one sub-query completion.
fn result_line(event: &Event) -> Option<String> {
    match *event {
        Event::SubDone {
            index,
            k,
            size,
            status,
        } => Some(format!(
            "RESULT idx={index} k={k} size={size} status={}",
            status.as_token()
        )),
        _ => None,
    }
}

/// Answers one `SOLVE`. A proven-optimal memo hit is answered here on the
/// connection thread, with no job: nothing is queued, traced or recorded,
/// and the reply carries no `job=`. `verbose=1` always runs as a job, so
/// its `EVENT` lines and `TRACE` id stay available.
fn solve(
    daemon: &Daemon,
    mut spec: JobSpec,
    verbose: bool,
    writer: &mut TcpStream,
) -> Result<String, String> {
    if !verbose {
        let session = spec.entry.session();
        if let Some(outcome) = session.memoized_solve(spec.query.k(), &spec.options) {
            return Ok(solve_reply(OkLine::new(), &spec.entry.name, &outcome));
        }
    }
    // verbose=1: the job streams `EVENT` lines onto the connection until
    // it finishes, then the handler falls through to the final line.
    let events = verbose.then(|| attach_stream(&mut spec, |e| Some(event_line(e))));
    // Every daemon solve carries a tracer, so `TRACE <id>` works after the
    // fact and the slow-query log can print a phase breakdown.
    let trace = kdc_obs::Tracer::new();
    spec.trace = Some(trace.clone());
    let entry = spec.entry.clone();
    let (k, preset) = (spec.query.k(), spec.options.preset_name().to_string());
    // A busy refusal drops the spec (and with it the verbose sender), so
    // the `?` below cannot leave a channel dangling.
    let id = submit_checked(daemon, spec)?;
    if let Some(events) = events {
        drain_lines(events, writer);
    }
    let outcome = wait_outcome(daemon, id)?;
    let status = outcome.status.as_token();
    let elapsed_ns = outcome.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    if elapsed_ns >= daemon.slow_threshold_ns.load(Ordering::Relaxed) {
        daemon.slow_queries.inc();
        let phases: Vec<String> = trace
            .summary()
            .iter()
            .map(|p| format!("{}={}ns/{}", p.name, p.total_ns, p.count))
            .collect();
        eprintln!(
            "kdc_service slow query: job={id} graph={} preset={preset} k={k} status={status} \
             elapsed_ms={} phases=[{}]",
            entry.name,
            outcome.elapsed.as_millis(),
            phases.join(" ")
        );
    }
    // Journal newly proven outcomes only: a memo hit was journaled when it
    // was first proven (possibly by an earlier process).
    if outcome.status == Status::Optimal && !outcome.cache.result_memo_hit {
        if let Some(persist) = daemon.persist.get() {
            let key = kdc_api::SolveKey { k, preset };
            let solution = kdc::Solution {
                vertices: outcome.best().unwrap_or_default().to_vec(),
                status: outcome.status,
                stats: outcome.stats.clone(),
            };
            persist.record_solve(&daemon.cache, &entry, &key, &solution);
        }
    }
    Ok(solve_reply(
        OkLine::new().field("job", id),
        &entry.name,
        &outcome,
    ))
}

/// The `SOLVE` reply fields after `line`'s (the job id, when a job ran).
fn solve_reply(line: OkLine, graph: &str, outcome: &Outcome) -> String {
    line.field("graph", graph)
        .field("status", outcome.status.as_token())
        .field("size", outcome.size())
        .field(
            "vertices",
            render_vertices(outcome.best().unwrap_or_default()),
        )
        .field("cached", outcome.cache.result_memo_hit)
        .field("ctcp_resumed", outcome.cache.ctcp_resumed)
        .field("elapsed_ms", outcome.elapsed.as_millis())
        .field("nodes", outcome.stats.nodes)
        .field("ctcp_removed_v", outcome.stats.ctcp_vertex_removals)
        .field("ctcp_removed_e", outcome.stats.ctcp_edge_removals)
        .field("arena_reuses", outcome.stats.arena_reuses)
        .field("universe_rebuilds", outcome.stats.universe_rebuilds)
        .render()
}

fn msolve(daemon: &Daemon, mut spec: JobSpec, writer: &mut TcpStream) -> Result<String, String> {
    // The whole sweep is one job, but answers stream as they land: each
    // sub-query completion becomes a `RESULT` line, and other solver events
    // are dropped at the source so a chatty search cannot stall on a slow
    // client.
    let results = attach_stream(&mut spec, result_line);
    spec.trace = Some(kdc_obs::Tracer::new());
    let entry = spec.entry.clone();
    let id = submit_checked(daemon, spec)?;
    drain_lines(results, writer);
    let batch = match daemon.queue.wait(id) {
        JobOutcome::Batch(batch) => batch,
        JobOutcome::Done(_) => return Err(format!("internal: job {id} returned one outcome")),
        JobOutcome::Error(e) => return Err(e),
    };
    // One sweep proves many (k, preset) rows at once; journal the session's
    // whole exported state (replay folds last-wins, so re-journaling rows
    // already on disk is harmless).
    if let Some(persist) = daemon.persist.get() {
        persist.record_session(&daemon.cache, &entry);
    }
    let sizes: Vec<String> = batch
        .outcomes
        .iter()
        .map(|o| o.size().to_string())
        .collect();
    Ok(OkLine::new()
        .field("job", id)
        .field("graph", &entry.name)
        .field("status", batch.status().as_token())
        .field("subs", batch.outcomes.len())
        .field("sizes", sizes.join(","))
        .field("ctcp_shares", batch.batch_ctcp_shares)
        .field("witness_seeds", batch.batch_witness_seeds)
        .field("memo_dedups", batch.batch_memo_dedups)
        .field("nodes", batch.total_nodes())
        .field("elapsed_ms", batch.elapsed.as_millis())
        .render())
}

fn enumerate(daemon: &Daemon, spec: JobSpec) -> Result<String, String> {
    let graph = spec.entry.name.clone();
    let id = submit_checked(daemon, spec)?;
    let outcome = wait_outcome(daemon, id)?;
    let complete = outcome.status == Status::Optimal;
    let sizes: Vec<String> = outcome
        .witnesses
        .iter()
        .map(|c| c.len().to_string())
        .collect();
    let rendered: Vec<String> = outcome
        .witnesses
        .iter()
        .map(|c| render_vertices(c))
        .collect();
    Ok(OkLine::new()
        .field("job", id)
        .field("graph", graph)
        .field("status", if complete { "complete" } else { "cancelled" })
        .field("count", outcome.witnesses.len())
        .field("sizes", sizes.join(","))
        .field("cliques", rendered.join(";"))
        .field("elapsed_ms", outcome.elapsed.as_millis())
        .render())
}

fn count(daemon: &Daemon, spec: JobSpec, min_size: usize) -> Result<String, String> {
    let graph = spec.entry.name.clone();
    let id = submit_checked(daemon, spec)?;
    let outcome = wait_outcome(daemon, id)?;
    let Some(counts) = outcome.counts else {
        return Err("internal: count job returned no counts".to_string());
    };
    // Render only the non-zero sizes as size:count pairs.
    let rendered: Vec<String> = counts
        .counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(s, &c)| format!("{s}:{c}"))
        .collect();
    Ok(OkLine::new()
        .field("job", id)
        .field("graph", graph)
        .field("max_size", counts.max_size())
        .field("total", counts.total_at_least(min_size))
        .field("counts", rendered.join(","))
        .field("elapsed_ms", outcome.elapsed.as_millis())
        .render())
}

fn stats(daemon: &Daemon, graph: Option<&str>) -> Result<String, String> {
    match graph {
        Some(name) => {
            let entry = daemon
                .cache
                .get(name)
                .ok_or_else(|| format!("no graph named {name:?}"))?;
            // Force the artifact before sampling counters, so the reported
            // peel_builds already reflects this request's build (if any).
            let degeneracy = entry.session().degeneracy();
            let line = OkLine::new()
                .field("graph", name)
                .field("n", entry.graph().n())
                .field("m", entry.graph().m())
                .field("degeneracy", degeneracy)
                .field("parse_ms", entry.parse_time.as_millis())
                .field("hits", entry.hits());
            Ok(entry
                .session()
                .counters()
                .fields()
                .into_iter()
                .fold(line, |line, (key, value)| line.field(key, value))
                .render())
        }
        None => Ok(OkLine::new()
            .field("graphs", daemon.cache.names().join(","))
            .field("parses", daemon.cache.parses())
            .field("jobs", daemon.queue.list().len())
            .field("cache_evictions", daemon.cache.evictions())
            .field(
                "recovered_graphs",
                daemon
                    .persist
                    .get()
                    .map_or(0, |persist| persist.recovered_graphs()),
            )
            .render()),
    }
}

/// One-shot client helper: connect, send one command line, read the
/// response. Any `EVENT` lines streamed by a `verbose=1` solve, any
/// `METRIC` lines streamed by `METRICS`, and any `RESULT` lines streamed
/// by `MSOLVE`, are included (newline-separated) before the final
/// `OK`/`ERR` line, which is always the last line of the returned string.
/// Used by `kdc client` and the tests.
pub fn request(addr: &str, command: &str) -> std::io::Result<String> {
    exchange(TcpStream::connect(addr)?, command)
}

/// The exchange half of [`request`], split out so [`request_with_retry`]
/// can distinguish connect failures (retryable) from mid-exchange errors
/// (not).
fn exchange(mut stream: TcpStream, command: &str) -> std::io::Result<String> {
    stream.write_all(format!("{command}\n").as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut lines: Vec<String> = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break; // server hung up mid-stream; return what arrived
        }
        let trimmed = line.trim_end().to_string();
        let streamed = trimmed.starts_with("EVENT ")
            || trimmed.starts_with("METRIC ")
            || trimmed.starts_with("RESULT ");
        lines.push(trimmed);
        if !streamed {
            break;
        }
    }
    Ok(lines.join("\n"))
}

/// Whether a reply is the daemon's typed overload refusal (its final line
/// starts with `ERR busy`) — the only *reply* worth retrying on every
/// verb: any other `ERR` is deterministic and will fail identically on
/// every attempt.
fn is_busy_reply(reply: &str) -> bool {
    reply
        .lines()
        .last()
        .is_some_and(|line| line.starts_with("ERR busy"))
}

/// Whether a reply was torn mid-stream: the daemon hung up (or the
/// transport died) before the final `OK`/`ERR` line arrived, leaving only
/// streamed `EVENT`/`METRIC`/`RESULT` lines — or nothing at all.
fn is_torn_reply(reply: &str) -> bool {
    !reply
        .lines()
        .last()
        .is_some_and(|line| line.starts_with("OK") || line.starts_with("ERR"))
}

/// Whether a command's first word is one of the idempotent *read* verbs —
/// `SOLVE` (answers from the session memo / resident state without
/// mutating what a retry would observe), `STATS` and `METRICS`. Only
/// these are safe to re-send after a torn reply or a mid-exchange I/O
/// error: the first attempt may have executed server-side.
fn is_idempotent_verb(command: &str) -> bool {
    command.split_whitespace().next().is_some_and(|verb| {
        verb.eq_ignore_ascii_case("SOLVE")
            || verb.eq_ignore_ascii_case("STATS")
            || verb.eq_ignore_ascii_case("METRICS")
    })
}

/// [`request`] with client-side retry, the contract `kdc client --retries`
/// exposes: up to `retries` extra attempts, retrying on a connect failure
/// (daemon restarting) or a busy reply (admission control) for every verb,
/// and additionally on a torn reply or mid-exchange I/O error for the
/// idempotent read verbs (`SOLVE`/`STATS`/`METRICS`) — a daemon killed or
/// fault-injected mid-write re-answers those identically. Non-idempotent
/// verbs never retry a torn exchange: the first attempt may have had side
/// effects (a `LOAD`, an `UNLOAD`, a `CANCEL`).
///
/// Backoff is decorrelated jitter: each sleep is drawn uniformly from
/// `backoff..3 * previous_sleep` (capped at 64x `backoff`), so a thundering
/// herd of rejected clients decorrelates instead of re-colliding.
pub fn request_with_retry(
    addr: &str,
    command: &str,
    retries: u32,
    backoff: Duration,
) -> std::io::Result<String> {
    use rand::{rngs::SmallRng, RngExt, SeedableRng};
    let base_ms = (backoff.as_millis().min(u128::from(u64::MAX)) as u64).max(1);
    let cap_ms = base_ms.saturating_mul(64);
    let idempotent = is_idempotent_verb(command);
    // Wall-clock + pid seed: retry jitter must differ *between* client
    // processes; within one, reproducibility is worthless.
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed)
        ^ (u64::from(std::process::id()) << 32);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sleep_ms = base_ms;
    let mut attempts_left = retries;
    loop {
        let outcome = match TcpStream::connect(addr) {
            Err(e) => Err(e),
            Ok(stream) => match exchange(stream, command) {
                Ok(reply) if is_busy_reply(&reply) => Ok(reply),
                Ok(reply) if idempotent && is_torn_reply(&reply) => Ok(reply),
                Err(e) if idempotent => Err(e),
                // Success, or a failure this verb must not repeat: final.
                other => return other,
            },
        };
        if attempts_left == 0 {
            return outcome;
        }
        attempts_left -= 1;
        std::thread::sleep(Duration::from_millis(sleep_ms));
        sleep_ms = rng
            .random_range(base_ms..sleep_ms.saturating_mul(3).max(base_ms + 1))
            .min(cap_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdc_graph::named;

    fn write_figure2() -> String {
        let dir = std::env::temp_dir().join(format!("kdc_service_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("figure2.clq");
        kdc_graph::io::write_dimacs(&named::figure2(), &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn single_connection_session() {
        let path = write_figure2();
        let handle = Server::bind("127.0.0.1:0", 2).unwrap().spawn().unwrap();
        let addr = handle.addr().to_string();

        let resp = request(&addr, &format!("LOAD {path} AS fig2")).unwrap();
        assert!(resp.starts_with("OK loaded=fig2 n=12 m=26"), "{resp}");

        let resp = request(&addr, "SOLVE fig2 k=2").unwrap();
        assert!(resp.contains("status=optimal"), "{resp}");
        assert!(resp.contains("size=6"), "{resp}");
        assert!(resp.contains("cached=false"), "{resp}");

        // Second identical solve is answered from the memo.
        let resp = request(&addr, "SOLVE fig2 k=2").unwrap();
        assert!(resp.contains("cached=true"), "{resp}");

        let resp = request(&addr, "ENUMERATE fig2 k=1 top=2").unwrap();
        assert!(resp.contains("count=2"), "{resp}");
        assert!(resp.contains("sizes=5,5"), "{resp}");

        let resp = request(&addr, "STATS fig2").unwrap();
        assert!(resp.contains("degeneracy="), "{resp}");
        assert!(resp.contains("peel_builds=1"), "{resp}");
        assert!(
            resp.contains("ctcp_builds=1") && resp.contains("ctcp_resumes=0"),
            "one cold solve builds the resident reducer once: {resp}"
        );

        // The memo hit ran no job: the cold SOLVE and the ENUMERATE did.
        let resp = request(&addr, "JOBS").unwrap();
        assert!(resp.starts_with("OK count=2"), "{resp}");

        let resp = request(&addr, "UNLOAD fig2").unwrap();
        assert_eq!(resp, "OK unloaded=fig2");
        let resp = request(&addr, "SOLVE fig2 k=2").unwrap();
        assert!(resp.starts_with("ERR "), "{resp}");

        let resp = request(&addr, "SHUTDOWN").unwrap();
        assert_eq!(resp, "OK shutdown=ok mode=abort");
        handle.join().unwrap();
    }

    #[test]
    fn streamed_lines_are_not_held_for_delayed_acks() {
        // An `MSOLVE` streams five `RESULT` lines before its final one while
        // the client sends nothing. With Nagle's algorithm on the daemon's
        // socket, every line after the first waits for the client's delayed
        // ACK (40 ms or more on Linux) once the connection has left its
        // quick-ACK start, so time sweeps on one long-lived connection.
        let path = write_figure2();
        let handle = Server::bind("127.0.0.1:0", 1).unwrap().spawn().unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |line: &str| {
            let t = std::time::Instant::now();
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut lines = Vec::new();
            loop {
                let mut resp = String::new();
                reader.read_line(&mut resp).unwrap();
                let done = !resp.starts_with("RESULT ");
                lines.push(resp.trim_end().to_string());
                if done {
                    return (lines, t.elapsed());
                }
            }
        };
        let (lines, _) = send(&format!("LOAD {path} AS fig2"));
        assert!(lines[0].starts_with("OK loaded=fig2"), "{lines:?}");
        let mut walls: Vec<Duration> = (0..6)
            .map(|_| {
                let (lines, wall) = send("MSOLVE fig2 k=0..4");
                assert_eq!(lines.len(), 6, "five RESULT lines and OK: {lines:?}");
                assert!(lines[5].starts_with("OK "), "{lines:?}");
                wall
            })
            .collect();
        walls.sort();
        assert!(
            walls[3] < Duration::from_millis(30),
            "median figure-2 sweep took {:?}: streamed lines wait for ACKs",
            walls[3]
        );
        assert_eq!(send("SHUTDOWN").0, ["OK shutdown=ok mode=abort"]);
        handle.join().unwrap();
    }

    #[test]
    fn malformed_lines_get_err_without_killing_connection() {
        let handle = Server::bind("127.0.0.1:0", 1).unwrap().spawn().unwrap();
        let addr = handle.addr().to_string();
        // One persistent connection, several bad lines, then a good one.
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |line: &str| {
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            resp.trim_end().to_string()
        };
        assert!(send("BOGUS").starts_with("ERR "));
        assert!(send("SOLVE nowhere k=1").starts_with("ERR "));
        assert!(send("LOAD /nonexistent.clq AS g").starts_with("ERR "));
        assert!(send("STATS").starts_with("OK graphs= parses=0"));
        assert_eq!(send("SHUTDOWN"), "OK shutdown=ok mode=abort");
        handle.join().unwrap();
    }

    #[test]
    fn busy_reply_detection() {
        assert!(is_busy_reply("ERR busy queue_depth=4 retry_after_ms=50"));
        assert!(is_busy_reply(
            "EVENT type=incumbent size=3\nERR busy queue_depth=1 retry_after_ms=50"
        ));
        assert!(!is_busy_reply("ERR no graph named \"g\""));
        assert!(!is_busy_reply("OK busy=0"));
        assert!(!is_busy_reply(""));
    }

    #[test]
    fn retry_helper_retries_busy_then_succeeds() {
        // A fake daemon: first connection gets a typed busy line, the
        // second gets an OK. The retry helper must surface only the OK.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let replies = ["ERR busy queue_depth=9 retry_after_ms=1\n", "OK done=1\n"];
            let mut served = 0;
            for reply in replies {
                let (mut stream, _) = listener.accept().unwrap();
                let mut line = String::new();
                BufReader::new(stream.try_clone().unwrap())
                    .read_line(&mut line)
                    .unwrap();
                stream.write_all(reply.as_bytes()).unwrap();
                served += 1;
            }
            served
        });
        let reply = request_with_retry(&addr, "SOLVE g k=1", 3, Duration::from_millis(1)).unwrap();
        assert_eq!(reply, "OK done=1");
        assert_eq!(server.join().unwrap(), 2, "exactly one retry");
    }

    #[test]
    fn retry_helper_does_not_retry_deterministic_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            stream.write_all(b"ERR no graph named \"ghost\"\n").unwrap();
            // A second accept would hang the test; the listener drops here,
            // so a (buggy) retry would surface as a connect error instead.
        });
        let reply = request_with_retry(&addr, "SOLVE ghost k=1", 3, Duration::from_millis(1));
        assert_eq!(reply.unwrap(), "ERR no graph named \"ghost\"");
        server.join().unwrap();
    }

    #[test]
    fn retry_helper_gives_up_after_connect_failures() {
        // Bind-then-drop: the port had a listener moments ago, now refuses.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let t0 = std::time::Instant::now();
        let result = request_with_retry(&addr, "JOBS", 2, Duration::from_millis(1));
        assert!(result.is_err(), "no listener must surface the io error");
        assert!(
            t0.elapsed() >= Duration::from_millis(2),
            "two backoff sleeps must have happened"
        );
    }

    #[test]
    fn unload_missing_graph_is_an_error() {
        let handle = Server::bind("127.0.0.1:0", 1).unwrap().spawn().unwrap();
        let addr = handle.addr().to_string();
        assert!(request(&addr, "UNLOAD ghost").unwrap().starts_with("ERR "));
        assert!(request(&addr, "CANCEL 42").unwrap().starts_with("ERR "));
        request(&addr, "SHUTDOWN").unwrap();
        handle.join().unwrap();
    }
}
