//! End-to-end smoke test for the solver daemon: one `Server` on an
//! ephemeral loopback port drives a full multi-request session —
//! LOAD → two *concurrent* SOLVEs on different cached graphs → a CANCEL of
//! a long-running job → warm-path re-solve → SHUTDOWN — and every solve
//! answer is checked against the direct [`kdc::Solver`] API on the same
//! inputs.

use kdc::{Solver, SolverConfig};
use kdc_graph::{gen, named, Graph};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

/// A persistent client connection: send one line, read one line.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        response.trim_end().to_string()
    }
}

/// Extracts `key=` from an `OK key=value ...` response line.
fn field<'a>(response: &'a str, key: &str) -> &'a str {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no field {key}= in {response:?}"))
}

fn write_graph(name: &str, g: &Graph) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdc_service_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    kdc_graph::io::write_dimacs(g, &path).unwrap();
    path
}

#[test]
fn full_session_on_ephemeral_port() {
    // Two easy-but-distinct graphs for the concurrent solves, one dense
    // graph hard enough that its solve must be cancelled, not awaited.
    let g1 = named::figure2();
    let mut rng = gen::seeded_rng(321);
    let (g2, _) = gen::planted_defective_clique(120, 12, 1, 0.05, &mut rng);
    let hard = gen::gnp(220, 0.5, &mut rng);
    let p1 = write_graph("g1.clq", &g1);
    let p2 = write_graph("g2.clq", &g2);
    let ph = write_graph("hard.clq", &hard);

    // Ground truth from the direct solver API on the same inputs.
    let direct1 = Solver::new(&g1, 2, SolverConfig::kdc()).solve();
    let direct2 = Solver::new(&g2, 1, SolverConfig::kdc()).solve();

    let handle = kdc_service::Server::bind("127.0.0.1:0", 2)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    // ---- LOAD both graphs over a control connection --------------------
    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS g1", p1.display()));
    assert_eq!(field(&resp, "loaded"), "g1", "{resp}");
    assert_eq!(field(&resp, "n"), "12", "{resp}");
    let resp = control.send(&format!("LOAD {} AS g2", p2.display()));
    assert_eq!(field(&resp, "loaded"), "g2", "{resp}");

    // ---- two concurrent SOLVEs on different cached graphs --------------
    let (r1, r2) = std::thread::scope(|scope| {
        let addr1 = addr.clone();
        let addr2 = addr.clone();
        let t1 = scope.spawn(move || Client::connect(&addr1).send("SOLVE g1 k=2"));
        let t2 = scope.spawn(move || Client::connect(&addr2).send("SOLVE g2 k=1 threads=2"));
        (t1.join().unwrap(), t2.join().unwrap())
    });
    assert_eq!(field(&r1, "status"), "optimal", "{r1}");
    assert_eq!(field(&r1, "size"), direct1.size().to_string(), "{r1}");
    assert_eq!(field(&r2, "status"), "optimal", "{r2}");
    assert_eq!(field(&r2, "size"), direct2.size().to_string(), "{r2}");
    // The reported vertex sets are valid k-defective cliques of the inputs.
    let verts1: Vec<u32> = field(&r1, "vertices")
        .split(',')
        .map(|v| v.parse().unwrap())
        .collect();
    assert!(g1.is_k_defective_clique(&verts1, 2), "{r1}");
    let verts2: Vec<u32> = field(&r2, "vertices")
        .split(',')
        .map(|v| v.parse().unwrap())
        .collect();
    assert!(g2.is_k_defective_clique(&verts2, 1), "{r2}");

    // ---- CANCEL a long-running job -------------------------------------
    let resp = control.send(&format!("LOAD {} AS hard", ph.display()));
    assert_eq!(field(&resp, "loaded"), "hard", "{resp}");
    let canceller = std::thread::scope(|scope| {
        let addr_solver = addr.clone();
        let solver_thread =
            scope.spawn(move || Client::connect(&addr_solver).send("SOLVE hard k=12"));
        // Poll JOBS until the hard solve is running, then cancel it.
        let cancelled_id = loop {
            let jobs = control.send("JOBS");
            let entries = field(&jobs, "jobs");
            if let Some(entry) = entries
                .split(';')
                .find(|e| e.contains("solve(hard") && e.contains(":running:"))
            {
                break entry.split(':').next().unwrap().to_string();
            }
            std::thread::yield_now();
        };
        let resp = control.send(&format!("CANCEL {cancelled_id}"));
        assert_eq!(field(&resp, "cancelled"), cancelled_id, "{resp}");
        let solve_resp = solver_thread.join().unwrap();
        assert_eq!(field(&solve_resp, "status"), "cancelled", "{solve_resp}");
        cancelled_id
    });
    let jobs = control.send("JOBS");
    assert!(
        jobs.contains(&format!("{canceller}:cancelled:")),
        "JOBS must show the cancelled job: {jobs}"
    );
    // Every JOBS row reports its queue-wait and execution time; the
    // cancelled job ran long enough that its running_ns cannot be zero.
    for entry in field(&jobs, "jobs").split(';') {
        assert!(
            entry.contains(":queued_ns=") && entry.contains(":running_ns="),
            "JOBS row missing timing fields: {entry}"
        );
    }
    let cancelled_row = field(&jobs, "jobs")
        .split(';')
        .find(|e| e.starts_with(&format!("{canceller}:")))
        .expect("cancelled job listed");
    let running_ns: u64 = cancelled_row
        .split(":running_ns=")
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(running_ns > 0, "cancelled job did run: {cancelled_row}");

    // ---- warm path: repeat solve skips re-parsing and re-searching -----
    let resp = control.send("SOLVE g1 k=2");
    assert_eq!(field(&resp, "cached"), "true", "{resp}");
    assert_eq!(field(&resp, "size"), direct1.size().to_string(), "{resp}");
    let stats = control.send("STATS g1");
    assert_eq!(
        field(&stats, "solves"),
        "1",
        "one real search only: {stats}"
    );
    assert_eq!(field(&stats, "result_hits"), "1", "{stats}");
    let global = control.send("STATS");
    assert_eq!(
        field(&global, "parses"),
        "3",
        "three LOADs, zero re-parses: {global}"
    );

    // ---- warm CTCP: a different preset (dodging the result memo) resumes
    // the resident reducer and is seeded with the recorded witness, so the
    // re-solve has nothing left to remove and builds one universe ----------
    let resp = control.send("SOLVE g1 k=2 preset=kdbb");
    assert_eq!(field(&resp, "cached"), "false", "{resp}");
    assert_eq!(field(&resp, "size"), direct1.size().to_string(), "{resp}");
    assert_eq!(
        field(&resp, "ctcp_removed_v"),
        "0",
        "resumed reducer is already at the fixpoint: {resp}"
    );
    assert_eq!(field(&resp, "universe_rebuilds"), "1", "{resp}");
    let stats = control.send("STATS g1");
    assert_eq!(field(&stats, "ctcp_builds"), "1", "{stats}");
    assert_eq!(field(&stats, "ctcp_resumes"), "1", "{stats}");

    // ---- COUNT through the same session --------------------------------
    let direct_counts = kdc::counting::count_k_defective_cliques(&g1, 1, 5);
    let resp = control.send("COUNT g1 k=1 min=5");
    assert_eq!(
        field(&resp, "total"),
        direct_counts.total_at_least(5).to_string(),
        "{resp}"
    );
    assert_eq!(
        field(&resp, "max_size"),
        direct_counts.max_size().to_string(),
        "{resp}"
    );

    // ---- the reducer cache is LRU-bounded and reports evictions --------
    let stats = control.send("STATS g1");
    assert_eq!(field(&stats, "ctcp_evictions"), "0", "{stats}");

    // ---- SHUTDOWN ------------------------------------------------------
    let resp = control.send("SHUTDOWN");
    assert_eq!(resp, "OK shutdown=ok mode=abort");
    handle.join().expect("clean server exit");
}

#[test]
fn verbose_solve_streams_events_end_to_end() {
    // `SOLVE verbose=1` must deliver EVENT lines (at least one incumbent)
    // over the wire *before* the final OK line — the daemon leg of the
    // Observer channel.
    let g = named::figure2();
    let path = write_graph("fig2_verbose.clq", &g);
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr);
    let resp = client.send(&format!("LOAD {} AS fig2", path.display()));
    assert_eq!(field(&resp, "loaded"), "fig2", "{resp}");

    // Raw line-by-line read: EVENT* then the final OK.
    client
        .writer
        .write_all(b"SOLVE fig2 k=2 verbose=1\n")
        .unwrap();
    client.writer.flush().unwrap();
    let mut events: Vec<String> = Vec::new();
    let final_line = loop {
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_string();
        if line.starts_with("EVENT ") {
            events.push(line);
        } else {
            break line;
        }
    };
    assert!(
        events
            .iter()
            .any(|e| e.contains("type=incumbent") && e.contains("size=")),
        "an incumbent event must be streamed: {events:?}"
    );
    assert!(
        events.last().unwrap().contains("type=done status=optimal"),
        "the stream ends with a done event: {events:?}"
    );
    assert_eq!(field(&final_line, "status"), "optimal", "{final_line}");
    assert_eq!(field(&final_line, "size"), "6", "{final_line}");

    // The one-shot request helper folds the stream into one response whose
    // last line is the verdict (what `kdc client` prints). A warm verbose
    // re-solve under another preset still streams its incumbent.
    let resp = kdc_service::request(&addr, "SOLVE fig2 k=2 preset=kdbb verbose=1").unwrap();
    let lines: Vec<&str> = resp.lines().collect();
    assert!(
        lines.iter().any(|l| l.starts_with("EVENT type=incumbent")),
        "{resp}"
    );
    assert!(lines.last().unwrap().starts_with("OK "), "{resp}");
    assert_eq!(
        field(lines.last().unwrap(), "ctcp_resumed"),
        "true",
        "{resp}"
    );

    // verbose=0 (and omitted) keeps the single-line response contract.
    let resp = kdc_service::request(&addr, "SOLVE fig2 k=2 verbose=0").unwrap();
    assert_eq!(resp.lines().count(), 1, "{resp}");

    client.send("SHUTDOWN");
    handle.join().expect("clean server exit");
}

#[test]
fn metrics_trace_and_slow_query_log_end_to_end() {
    let g = named::figure2();
    let path = write_graph("fig2_metrics.clq", &g);
    // Threshold zero: every solve is a "slow query", so the counter and
    // the stderr log path are exercised deterministically.
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .with_slow_threshold(std::time::Duration::ZERO)
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr);
    let resp = client.send(&format!("LOAD {} AS fig2", path.display()));
    assert_eq!(field(&resp, "loaded"), "fig2", "{resp}");
    let resp = client.send("SOLVE fig2 k=2");
    assert_eq!(field(&resp, "status"), "optimal", "{resp}");
    let job_id = field(&resp, "job").to_string();

    // ---- METRICS: Prometheus exposition streamed as METRIC lines -------
    client.writer.write_all(b"METRICS\n").unwrap();
    client.writer.flush().unwrap();
    let mut metric_lines: Vec<String> = Vec::new();
    let final_line = loop {
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_string();
        if let Some(sample) = line.strip_prefix("METRIC ") {
            metric_lines.push(sample.to_string());
        } else {
            break line;
        }
    };
    assert!(final_line.starts_with("OK "), "{final_line}");
    let series: usize = field(&final_line, "series").parse().unwrap();
    assert!(series > 0, "registry must not be empty: {final_line}");
    // Parse every exposition line: `# TYPE <name> <kind>` comments or
    // `name{labels} value` samples with numeric values.
    let mut samples = 0usize;
    for line in &metric_lines {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("type line has a name");
            let kind = parts.next().expect("type line has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown kind in {line:?}"
            );
            assert!(name.starts_with("kdc_"), "bad series name in {line:?}");
        } else {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("unparseable sample value in {line:?}"));
            samples += 1;
        }
    }
    assert_eq!(samples, series, "series count matches sample lines");
    for required in [
        "kdc_service_jobs_total",
        "kdc_service_queue_depth",
        "kdc_service_queue_wait_ns",
        "kdc_service_job_duration_ns",
        "kdc_session_solves_total",
        "kdc_session_nodes_total",
        "kdc_core_bound_invocations_total",
    ] {
        assert!(
            metric_lines
                .iter()
                .any(|l| l.starts_with(required) || l.starts_with(&format!("# TYPE {required}"))),
            "required series {required} missing from METRICS output"
        );
    }
    // The zero threshold forced the solve into the slow-query log.
    let slow = metric_lines
        .iter()
        .find(|l| l.starts_with("kdc_service_slow_queries_total "))
        .expect("slow query counter exported");
    let slow_count: u64 = slow.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert!(slow_count >= 1, "threshold 0 logs every solve: {slow}");

    // ---- TRACE: per-job chrome://tracing JSON --------------------------
    let resp = client.send(&format!("TRACE {job_id}"));
    assert!(resp.starts_with("OK "), "{resp}");
    assert_eq!(field(&resp, "job"), job_id, "{resp}");
    let spans: usize = field(&resp, "spans").parse().unwrap();
    assert!(spans > 0, "solve must record phase spans: {resp}");
    let json = field(&resp, "trace");
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"name\":\"peel\""), "{json}");
    // Jobs without a tracer (counts) and unknown ids are clean errors.
    let resp = client.send("COUNT fig2 k=1 min=5");
    assert!(resp.starts_with("OK "), "{resp}");
    let count_job = field(&resp, "job").to_string();
    assert!(client
        .send(&format!("TRACE {count_job}"))
        .starts_with("ERR "));
    assert!(client.send("TRACE 9999").starts_with("ERR "));

    client.send("SHUTDOWN");
    handle.join().expect("clean server exit");
}

/// `SHUTDOWN mode=drain` lets in-flight *and* queued jobs publish their
/// real outcomes (verbose streams included) before the daemon exits.
#[test]
fn drain_shutdown_completes_queued_jobs() {
    let mut rng = gen::seeded_rng(77);
    let hard = gen::gnp(220, 0.5, &mut rng);
    let ph = write_graph("drain_hard.clq", &hard);
    // One worker: the second solve is necessarily still queued when the
    // drain request lands.
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS hard", ph.display()));
    assert_eq!(field(&resp, "loaded"), "hard", "{resp}");

    let (r1, r2) = std::thread::scope(|scope| {
        let a1 = addr.clone();
        let a2 = addr.clone();
        let t1 = scope.spawn(move || {
            kdc_service::request(&a1, "SOLVE hard k=12 nodes=50000 verbose=1").unwrap()
        });
        let t2 =
            scope.spawn(move || kdc_service::request(&a2, "SOLVE hard k=12 nodes=20000").unwrap());
        // Wait until one solve runs and the other queues, then drain.
        loop {
            let jobs = control.send("JOBS");
            let entries = field(&jobs, "jobs");
            let running = entries.matches(":running:").count();
            let queued = entries.matches(":queued:").count();
            if running == 1 && queued == 1 {
                break;
            }
            std::thread::yield_now();
        }
        let resp = control.send("SHUTDOWN mode=drain");
        assert_eq!(resp, "OK shutdown=ok mode=drain");
        (t1.join().unwrap(), t2.join().unwrap())
    });
    // Both jobs ran to their node budgets — nobody was cancelled or left
    // hanging — and the verbose stream still delivered its events.
    let verdict1 = r1.lines().last().unwrap();
    assert_eq!(field(verdict1, "status"), "node-limit", "{r1}");
    assert!(
        r1.lines().any(|l| l.starts_with("EVENT ")),
        "drain must let the event stream finish: {r1}"
    );
    assert_eq!(field(&r2, "status"), "node-limit", "{r2}");
    handle.join().expect("clean server exit");
}

/// Plain `SHUTDOWN` (mode=abort) cancels outstanding jobs cooperatively:
/// waiters get a typed best-effort answer, not a hang.
#[test]
fn abort_shutdown_cancels_running_job() {
    let mut rng = gen::seeded_rng(78);
    let hard = gen::gnp(220, 0.5, &mut rng);
    let ph = write_graph("abort_hard.clq", &hard);
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS hard", ph.display()));
    assert_eq!(field(&resp, "loaded"), "hard", "{resp}");

    let solve_resp = std::thread::scope(|scope| {
        let a = addr.clone();
        let t = scope.spawn(move || Client::connect(&a).send("SOLVE hard k=12"));
        loop {
            let jobs = control.send("JOBS");
            if field(&jobs, "jobs").contains(":running:") {
                break;
            }
            std::thread::yield_now();
        }
        let resp = control.send("SHUTDOWN");
        assert_eq!(resp, "OK shutdown=ok mode=abort");
        t.join().unwrap()
    });
    assert_eq!(field(&solve_resp, "status"), "cancelled", "{solve_resp}");
    handle.join().expect("clean server exit");
}

/// A bounded job queue refuses the overflow request with a typed busy line
/// carrying a retry hint — the client-visible half of admission control.
#[test]
fn bounded_queue_answers_typed_busy() {
    let mut rng = gen::seeded_rng(79);
    let hard = gen::gnp(220, 0.5, &mut rng);
    let ph = write_graph("busy_hard.clq", &hard);
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .with_limits(0, 1)
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS hard", ph.display()));
    assert_eq!(field(&resp, "loaded"), "hard", "{resp}");

    std::thread::scope(|scope| {
        let a1 = addr.clone();
        let a2 = addr.clone();
        let t1 = scope.spawn(move || Client::connect(&a1).send("SOLVE hard k=12"));
        // Occupy the single worker...
        loop {
            let jobs = control.send("JOBS");
            if field(&jobs, "jobs").contains(":running:") {
                break;
            }
            std::thread::yield_now();
        }
        // ...then fill the depth-1 queue...
        let t2 = scope.spawn(move || Client::connect(&a2).send("SOLVE hard k=12"));
        loop {
            let jobs = control.send("JOBS");
            if field(&jobs, "jobs").contains(":queued:") {
                break;
            }
            std::thread::yield_now();
        }
        // ...so the third solve is refused with the typed busy line.
        let busy = control.send("SOLVE hard k=12");
        assert!(busy.starts_with("ERR busy queue_depth=1"), "{busy}");
        assert!(busy.contains("retry_after_ms="), "{busy}");
        // Cheap commands are never load-shed by the queue bound.
        assert!(control.send("JOBS").starts_with("OK "), "cheap verbs pass");

        let resp = control.send("SHUTDOWN");
        assert_eq!(resp, "OK shutdown=ok mode=abort");
        // The running job is cancelled cooperatively (best-effort answer);
        // the queued one never ran and is refused with a typed error.
        assert_eq!(field(&t1.join().unwrap(), "status"), "cancelled");
        let r2 = t2.join().unwrap();
        assert!(
            r2.starts_with("ERR ") && r2.contains("shutting down"),
            "{r2}"
        );
    });
    handle.join().expect("clean server exit");
}

/// Beyond the connection cap, a fresh connection gets one typed busy line
/// and a hangup; once a slot frees, new connections are served again.
#[test]
fn connection_cap_answers_typed_busy() {
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .with_limits(1, 0)
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut holder = Client::connect(&addr);
    assert!(holder.send("JOBS").starts_with("OK "), "first conn serves");

    let mut refused = Client::connect(&addr);
    let mut line = String::new();
    refused.reader.read_line(&mut line).expect("busy line");
    let line = line.trim_end();
    assert!(line.starts_with("ERR busy active_conns=1"), "{line}");
    assert!(line.contains("retry_after_ms="), "{line}");
    let mut rest = String::new();
    refused.reader.read_line(&mut rest).expect("eof read");
    assert!(rest.is_empty(), "refused conn must be closed, got {rest:?}");

    // Free the slot; the guard decrement races with our reconnect, so poll.
    drop(holder);
    let mut served = loop {
        let mut c = Client::connect(&addr);
        let mut line = String::new();
        c.writer.write_all(b"JOBS\n").expect("write");
        c.reader.read_line(&mut line).expect("read");
        if line.starts_with("OK ") {
            break c;
        }
    };
    let resp = served.send("SHUTDOWN");
    assert_eq!(resp, "OK shutdown=ok mode=abort");
    handle.join().expect("clean server exit");
}

/// A request line past `MAX_LINE_BYTES` cannot be resynced mid-stream: the
/// daemon answers one typed error and hangs up instead of buffering
/// hostile bytes forever.
#[test]
fn oversized_request_line_gets_error_then_hangup() {
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr);
    let oversized = vec![b'A'; 66 * 1024];
    client.writer.write_all(&oversized).expect("write blob");
    client.writer.flush().expect("flush");
    let mut line = String::new();
    client.reader.read_line(&mut line).expect("error line");
    assert_eq!(line.trim_end(), "ERR request line too long", "{line}");
    // The hangup arrives as clean EOF or, because the daemon closes with
    // unread bytes still pending, as a connection reset — never as more
    // protocol lines.
    let mut rest = String::new();
    if let Ok(n) = client.reader.read_line(&mut rest) {
        assert_eq!(n, 0, "connection must be closed, got {rest:?}");
    }

    // The daemon itself is unharmed.
    let mut fresh = Client::connect(&addr);
    assert!(fresh.send("JOBS").starts_with("OK "));
    fresh.send("SHUTDOWN");
    handle.join().expect("clean server exit");
}

/// A half-open (stalled mid-line) connection is reaped by the idle timeout
/// instead of pinning a handler thread forever, and the reap is counted.
#[test]
fn idle_timeout_reaps_half_open_connection() {
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .with_idle_timeout(std::time::Duration::from_millis(150))
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut stalled = Client::connect(&addr);
    // A partial command with no newline: a well-behaved reader would wait
    // for the rest of the line forever.
    stalled.writer.write_all(b"SOLVE nope").expect("write");
    stalled.writer.flush().expect("flush");
    let start = std::time::Instant::now();
    let mut line = String::new();
    stalled.reader.read_line(&mut line).expect("goodbye line");
    assert_eq!(line.trim_end(), "ERR idle timeout, closing", "{line}");
    assert!(
        start.elapsed() >= std::time::Duration::from_millis(100),
        "the reap must come from the timeout, not an instant close"
    );
    let mut rest = String::new();
    stalled.reader.read_line(&mut rest).expect("eof read");
    assert!(rest.is_empty(), "connection must be closed, got {rest:?}");

    // The reap is observable: scrape the counter over a fresh connection.
    let resp = kdc_service::request(&addr, "METRICS").expect("metrics");
    let count = resp
        .lines()
        .find_map(|l| l.strip_prefix("METRIC kdc_service_conn_timeouts_total "))
        .expect("conn_timeouts series exported");
    assert!(
        count.trim().parse::<f64>().unwrap() >= 1.0,
        "timeout counted: {count}"
    );
    kdc_service::request(&addr, "SHUTDOWN").expect("shutdown");
    handle.join().expect("clean server exit");
}

/// Jobs submitted without their own `limit=`/`nodes=` budget are killed by
/// the watchdog and surfaced as `failed reason=watchdog` in `JOBS`.
#[test]
fn watchdog_fails_limitless_job() {
    let mut rng = gen::seeded_rng(80);
    let hard = gen::gnp(220, 0.5, &mut rng);
    let ph = write_graph("watchdog_hard.clq", &hard);
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .with_watchdog(std::time::Duration::from_millis(150))
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS hard", ph.display()));
    assert_eq!(field(&resp, "loaded"), "hard", "{resp}");

    // Limit-less solve on a graph that takes far longer than the deadline.
    let resp = control.send("SOLVE hard k=12");
    assert!(
        resp.starts_with("ERR "),
        "watchdog kill is an error: {resp}"
    );
    assert!(resp.contains("watchdog"), "{resp}");
    let jobs = control.send("JOBS");
    let row = field(&jobs, "jobs")
        .split(';')
        .find(|e| e.contains(":failed:"))
        .unwrap_or_else(|| panic!("no failed row in {jobs}"));
    assert!(row.contains(":reason=watchdog"), "{row}");

    // A budgeted job on the same daemon is left alone by the watchdog.
    let resp = control.send("SOLVE hard k=12 nodes=2000");
    assert_eq!(field(&resp, "status"), "node-limit", "{resp}");

    control.send("SHUTDOWN");
    handle.join().expect("clean server exit");
}

/// A job that panics mid-solve must come back as an `ERR` reply — not a
/// hung waiter, not a dead worker. Debug builds only: the fault-injection
/// preset does not exist in release builds.
#[cfg(debug_assertions)]
#[test]
fn panicking_job_leaves_daemon_serving() {
    let g = named::figure2();
    let p = write_graph("panic_fig2.clq", &g);
    // One worker on purpose: if the panic killed it, the follow-up solve
    // below would hang instead of answering.
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr);
    let resp = client.send(&format!("LOAD {} AS fig2", p.display()));
    assert_eq!(field(&resp, "loaded"), "fig2", "{resp}");

    let resp = client.send(&format!(
        "SOLVE fig2 k=2 preset={}",
        kdc_api::query::PANIC_PRESET
    ));
    assert!(
        resp.starts_with("ERR "),
        "panic must surface as ERR: {resp}"
    );
    assert!(resp.contains("panicked"), "{resp}");

    // Same connection still answers, and the answer is still right.
    let direct = Solver::new(&g, 2, SolverConfig::kdc()).solve();
    let resp = client.send("SOLVE fig2 k=2");
    assert_eq!(field(&resp, "status"), "optimal", "{resp}");
    assert_eq!(field(&resp, "size"), direct.size().to_string(), "{resp}");

    // Fresh connections are accepted too, and JOBS records the failure.
    let mut fresh = Client::connect(&addr);
    let jobs = fresh.send("JOBS");
    assert!(
        jobs.contains(":failed:"),
        "failed job visible in JOBS: {jobs}"
    );

    let resp = fresh.send("SHUTDOWN");
    assert_eq!(resp, "OK shutdown=ok mode=abort");
    handle.join().expect("clean server exit");
}

/// Every query verb shares one protocol edge: an unknown graph or preset
/// answers a one-line `ERR` there and never becomes a job.
#[test]
fn edge_errors_never_become_jobs() {
    let p = write_graph("edge_fig2.clq", &named::figure2());
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();
    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS fig2", p.display()));
    assert_eq!(field(&resp, "loaded"), "fig2", "{resp}");
    let resp = control.send("SOLVE fig2 k=1");
    assert_eq!(field(&resp, "status"), "optimal", "{resp}");
    let jobs_before = field(&control.send("JOBS"), "count").to_string();
    assert_eq!(jobs_before, "1");

    for request in [
        "SOLVE fig2 k=1 preset=nope",
        "SOLVE nosuch k=1",
        "MSOLVE nosuch k=0..2",
        "ENUMERATE nosuch k=1 top=2",
        "COUNT nosuch k=1",
    ] {
        let reply = kdc_service::request(&addr, request).expect("request");
        assert!(
            reply.starts_with("ERR ") && !reply.contains('\n'),
            "{request} must answer one ERR line: {reply:?}"
        );
    }
    let jobs = control.send("JOBS");
    assert_eq!(field(&jobs, "count"), jobs_before, "{jobs}");

    assert_eq!(control.send("SHUTDOWN"), "OK shutdown=ok mode=abort");
    handle.join().expect("clean server exit");
}

/// A `SOLVE` the session memo can answer is answered on the connection:
/// the reply says `cached=true`, carries no `job=`, and `JOBS` does not
/// grow. `verbose=1` still runs as a job.
#[test]
fn memo_solve_answers_without_a_job() {
    let g = named::figure2();
    let p = write_graph("memo_fig2.clq", &g);
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();
    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS fig2", p.display()));
    assert_eq!(field(&resp, "loaded"), "fig2", "{resp}");
    let cold = control.send("SOLVE fig2 k=2");
    assert_eq!(field(&cold, "cached"), "false", "{cold}");
    assert_eq!(field(&cold, "job"), "1", "{cold}");
    let jobs_before = field(&control.send("JOBS"), "count").to_string();
    assert_eq!(jobs_before, "1");

    let memo = control.send("SOLVE fig2 k=2");
    assert!(memo.starts_with("OK graph=fig2 "), "{memo}");
    assert_eq!(field(&memo, "cached"), "true", "{memo}");
    assert!(!memo.contains("job="), "a memo hit has no job: {memo}");
    for key in ["status", "size", "vertices", "nodes"] {
        assert_eq!(field(&memo, key), field(&cold, key), "{key}: {memo}");
    }
    let jobs = control.send("JOBS");
    assert_eq!(field(&jobs, "count"), jobs_before, "{jobs}");
    let stats = control.send("STATS fig2");
    assert_eq!(field(&stats, "result_hits"), "1", "{stats}");

    // verbose=1 keeps the job path: EVENT lines, then a reply with a job.
    let reply = kdc_service::request(&addr, "SOLVE fig2 k=2 verbose=1").expect("request");
    let last = reply.lines().last().unwrap_or_default();
    assert_eq!(field(last, "cached"), "true", "{reply}");
    assert_eq!(field(last, "job"), "2", "{reply}");
    let jobs = control.send("JOBS");
    assert_eq!(field(&jobs, "count"), "2", "{jobs}");

    assert_eq!(control.send("SHUTDOWN"), "OK shutdown=ok mode=abort");
    handle.join().expect("clean server exit");
}
