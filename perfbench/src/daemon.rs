//! The `daemon-mixed` workload: a real `kdc serve --workers 2 --state-dir`
//! process on loopback, driven by two closed-loop clients (each sends its
//! next request only after the previous reply) over resident graphs.
//!
//! Resident graphs: `p200` (planted-200-k3), `cl20k` (Chung–Lu, n = 20,000,
//! average degree 10, β = 2.3) and `p2k` (planted-2k-k2); the seed orders
//! the edges in their files and draws the clients' memo picks. Each client
//! repeats an episode until the run's time is up:
//!
//! 1. **load**: `LOAD` of the cl20k file under a fresh name (and its
//!    `UNLOAD` at the end of the episode): a parse into the graph cache;
//! 2. **cold**: `SOLVE fresh k=3`, never proven before: a reducer build,
//!    tighten, search and a journal append;
//! 3. **sweep**: `MSOLVE fresh k=0..4`, a batched sweep;
//! 4. **memo** ×60: `SOLVE` of an already proven (graph, k), answered
//!    `cached=true`.
//!
//! The mix is synthetic: no recorded request trace exists. The 60 memo
//! requests size a run to at least 1,000 requests (see `README.md`).
//!
//! Every reply is checked against an in-process `kdc::Solver` answer for
//! the same (graph, k). A traced run also reads the daemon's `METRICS`
//! before and after the timed window, and `JOBS` and `TRACE` after it.

use crate::calib::Calibrator;
use crate::gen::{chung_lu_edges, write_dimacs, Rng};
use crate::report::{median, peak_rss_mb, quantile, tail, Report, Spans};
use crate::solve::{insert_bound, GRAPH_SEED};
use crate::{verify_witness, Args, Measured, Values};
use kdc::{bound, Solver, SolverConfig};
use kdc_graph::{gen, Graph};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon boots per run; `setup_s` is their median.
const SETUPS: usize = 5;
const CLIENTS: u64 = 2;
const WORKERS: &str = "2";
const MEMO_PER_EPISODE: usize = 60;
const COLD_K: usize = 3;
const SWEEP_K: std::ops::RangeInclusive<usize> = 0..=4;
/// Longest a single reply may take before the run is declared broken.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A graph the daemon serves, with what is needed to check answers on it.
struct Input {
    name: &'static str,
    path: PathBuf,
    bytes: u64,
    graph: Graph,
    /// Reference optimum size per k, from an in-process solve.
    sizes: BTreeMap<usize, usize>,
}

impl Input {
    fn new(
        name: &'static str,
        dir: &Path,
        n: usize,
        edges: &[(u32, u32)],
        ks: &[usize],
        rng: &mut Rng,
    ) -> Result<Input, String> {
        let path = dir.join(format!("{name}.clq"));
        write_dimacs(&path, n, edges, rng)?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let graph = Graph::from_edges(n, edges);
        let mut sizes = BTreeMap::new();
        for &k in ks {
            let reference = Solver::new(&graph, k, SolverConfig::kdc()).solve();
            if !reference.is_optimal() {
                return Err(format!("reference solve of {name} k={k} is not optimal"));
            }
            sizes.insert(k, reference.size());
        }
        Ok(Input {
            name,
            path,
            bytes,
            graph,
            sizes,
        })
    }
}

/// One `OK` reply and the lines streamed before it.
struct Reply {
    line: String,
    streamed: Vec<String>,
}

impl Reply {
    fn get(&self, key: &str) -> Option<&str> {
        self.line
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no numeric {key}= in {:?}", self.line))
    }

    fn expect(&self, key: &str, want: &str) -> Result<(), String> {
        match self.get(key) {
            Some(v) if v == want => Ok(()),
            v => Err(format!("{key}={v:?}, expected {want}")),
        }
    }
}

/// A client connection speaking the daemon's line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Set after a transport error: the connection is unusable.
    broken: bool,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            broken: false,
        })
    }

    /// Sends one request line and reads up to its final `OK`/`ERR` line.
    fn call(&mut self, request: &str) -> Result<Reply, String> {
        let mut streamed = Vec::new();
        let transport = |conn: &mut Conn, e: std::io::Error| {
            conn.broken = true;
            format!("{request}: {e}")
        };
        if let Err(e) = self.writer.write_all(format!("{request}\n").as_bytes()) {
            return Err(transport(self, e));
        }
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    self.broken = true;
                    return Err(format!("{request}: connection closed"));
                }
                Ok(_) => {}
                Err(e) => return Err(transport(self, e)),
            }
            let line = line.trim_end().to_string();
            if line.starts_with("OK") {
                return Ok(Reply { line, streamed });
            }
            if line.starts_with("ERR") {
                return Err(format!("{request}: {line}"));
            }
            streamed.push(line);
        }
    }
}

/// A running `kdc serve`, killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open so the daemon never writes to a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    fn start(kdc: &Path, state_dir: &Path, log: &Path) -> Result<Daemon, String> {
        let log = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(kdc)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                WORKERS,
                "--state-dir",
            ])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", kdc.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: None,
        };
        let mut stdout = BufReader::new(daemon.child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        daemon.addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .to_string();
        daemon._stdout = Some(stdout);
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to exit and waits for it.
    fn stop(mut self) -> Result<(), String> {
        Conn::open(&self.addr)?.call("SHUTDOWN")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after SHUTDOWN".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Boots a daemon on a fresh state directory and loads the resident graphs.
fn boot(args: &Args, inputs: &[Input], i: usize) -> Result<Daemon, String> {
    let daemon = Daemon::start(
        &args.kdc,
        &args.work.join(format!("state-{i}")),
        &args.work.join(format!("daemon-{i}.log")),
    )?;
    let mut conn = Conn::open(&daemon.addr)?;
    for input in inputs {
        let reply = conn.call(&format!("LOAD {} AS {}", input.path.display(), input.name))?;
        check_load(&reply, input, input.name)?;
    }
    Ok(daemon)
}

fn check_load(reply: &Reply, input: &Input, name: &str) -> Result<(), String> {
    reply.expect("loaded", name)?;
    reply.expect("n", &input.graph.n().to_string())?;
    reply.expect("m", &input.graph.m().to_string())
}

fn check_solve(reply: &Reply, input: &Input, k: usize, cached: bool) -> Result<(), String> {
    reply.expect("status", "optimal")?;
    reply.expect("cached", &cached.to_string())?;
    let want = input.sizes[&k];
    reply.expect("size", &want.to_string())?;
    let vertices: Vec<u32> = match reply.get("vertices") {
        Some("") | None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|v| v.parse().map_err(|_| format!("bad vertex {v:?}")))
            .collect::<Result<_, _>>()?,
    };
    if vertices.len() != want {
        return Err(format!("{} vertices listed, size {want}", vertices.len()));
    }
    verify_witness(&input.graph, &vertices, k)
}

fn check_sweep(reply: &Reply, input: &Input) -> Result<(), String> {
    reply.expect("status", "optimal")?;
    let want: Vec<String> = SWEEP_K.map(|k| input.sizes[&k].to_string()).collect();
    reply.expect("sizes", &want.join(","))?;
    let results = reply
        .streamed
        .iter()
        .filter(|l| l.starts_with("RESULT "))
        .count();
    if results != want.len() {
        return Err(format!(
            "{results} RESULT lines for {} sub-queries",
            want.len()
        ));
    }
    Ok(())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Memo,
    Cold,
    Sweep,
    Load,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Memo => "memo",
            Class::Cold => "cold",
            Class::Sweep => "sweep",
            Class::Load => "load",
        }
    }
}

/// One request as its client saw it.
struct Request {
    class: Class,
    start: Instant,
    end: Instant,
    /// Daemon job id, for requests that run as jobs.
    job: Option<u64>,
}

impl Request {
    fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// What one client did and saw.
#[derive(Default)]
struct ClientLog {
    requests: Vec<Request>,
    failures: Vec<String>,
    /// Per episode, with the time it began: `LOAD` + cold `SOLVE`, a
    /// file → answer solve.
    solves: Vec<(Instant, f64)>,
    /// Per episode, with the time it began: `LOAD` + `UNLOAD`, the load op.
    loads: Vec<(Instant, f64)>,
    /// `parse_ms` of each fresh `LOAD`.
    parse_ms: Vec<f64>,
    /// `(ctcp_removed_v, ctcp_removed_e, universe_rebuilds)` of each cold solve.
    cold: Vec<(f64, f64, f64)>,
    /// Nodes searched by the sweeps.
    sweep_nodes: u64,
}

impl ClientLog {
    /// Seconds the latest request took.
    fn last_s(&self) -> f64 {
        self.requests.last().map_or(0.0, Request::seconds)
    }

    /// Sends one request, records it and checks its reply with `check`.
    fn call(
        &mut self,
        conn: &mut Conn,
        class: Class,
        line: &str,
        check: impl FnOnce(&Reply) -> Result<(), String>,
    ) -> Option<Reply> {
        let start = Instant::now();
        let result = conn.call(line);
        let end = Instant::now();
        let job = result.as_ref().ok().and_then(|r| r.num("job").ok());
        self.requests.push(Request {
            class,
            start,
            end,
            job,
        });
        match result.and_then(|reply| check(&reply).map(|()| reply)) {
            Ok(reply) => Some(reply),
            Err(e) => {
                self.failures.push(format!("{line}: {e}"));
                None
            }
        }
    }
}

/// One closed-loop client: episodes until `deadline`, each finished whole.
///
/// The client times the calibration kernel (see `calib`) before each
/// episode and once after the last, on its own thread between requests.
fn client(
    id: u64,
    addr: &str,
    inputs: &[Input],
    seed: u64,
    deadline: Instant,
    calibrator: &Calibrator,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            log.failures.push(e);
            return log;
        }
    };
    let mut rng = Rng::new(seed, 16 + id);
    let cl = &inputs[1];
    let mut episode = 0u64;
    while Instant::now() < deadline && !conn.broken {
        calibrator.sample();
        let name = format!("fresh-{id}-{episode}");
        let load = format!("LOAD {} AS {name}", cl.path.display());
        if let Some(r) = log.call(&mut conn, Class::Load, &load, |r| check_load(r, cl, &name)) {
            log.parse_ms.push(r.num("parse_ms").unwrap_or(0) as f64);
        }
        let (began, load_s) = (
            log.requests.last().map_or(deadline, |r| r.start),
            log.last_s(),
        );
        let cold = format!("SOLVE {name} k={COLD_K}");
        if let Some(r) = log.call(&mut conn, Class::Cold, &cold, |r| {
            check_solve(r, cl, COLD_K, false)
        }) {
            let field = |key| r.num(key).unwrap_or(0) as f64;
            log.cold.push((
                field("ctcp_removed_v"),
                field("ctcp_removed_e"),
                field("universe_rebuilds"),
            ));
        }
        log.solves.push((began, load_s + log.last_s()));
        let sweep = format!("MSOLVE {name} k={}..{}", SWEEP_K.start(), SWEEP_K.end());
        if let Some(r) = log.call(&mut conn, Class::Sweep, &sweep, |r| check_sweep(r, cl)) {
            log.sweep_nodes += r.num("nodes").unwrap_or(0);
        }
        for _ in 0..MEMO_PER_EPISODE {
            // Three resident (graph, k) pairs proven at warm-up, plus the
            // fresh graph at every k its cold solve and sweep proved.
            let pick = rng.below(3 + SWEEP_K.count());
            let (graph, input, k) = match pick {
                0 => (inputs[0].name, &inputs[0], COLD_K),
                1 => (inputs[1].name, &inputs[1], COLD_K),
                2 => (inputs[2].name, &inputs[2], 2),
                _ => (name.as_str(), cl, pick - 3),
            };
            let memo = format!("SOLVE {graph} k={k}");
            log.call(&mut conn, Class::Memo, &memo, |r| {
                check_solve(r, input, k, true)
            });
        }
        log.call(&mut conn, Class::Load, &format!("UNLOAD {name}"), |r| {
            r.expect("unloaded", &name)
        });
        log.loads.push((began, load_s + log.last_s()));
        episode += 1;
    }
    calibrator.sample();
    log
}

/// Parses a `METRICS` scrape into series → value.
fn scrape(conn: &mut Conn) -> Result<HashMap<String, f64>, String> {
    let reply = conn.call("METRICS")?;
    Ok(reply
        .streamed
        .iter()
        .filter_map(|l| l.strip_prefix("METRIC "))
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// `(queued_ns, running_ns)` per job id, from `JOBS`.
fn jobs(conn: &mut Conn) -> Result<HashMap<u64, (f64, f64)>, String> {
    let reply = conn.call("JOBS")?;
    let mut out = HashMap::new();
    for row in reply
        .get("jobs")
        .unwrap_or("")
        .split(';')
        .filter(|r| !r.is_empty())
    {
        let mut parts = row.split(':');
        let id: u64 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or(format!("bad JOBS row {row:?}"))?;
        let (mut queued, mut running) = (0.0, 0.0);
        for part in parts {
            if let Some(v) = part.strip_prefix("queued_ns=") {
                queued = v.parse().map_err(|_| format!("bad JOBS row {row:?}"))?;
            } else if let Some(v) = part.strip_prefix("running_ns=") {
                running = v.parse().map_err(|_| format!("bad JOBS row {row:?}"))?;
            }
        }
        out.insert(id, (queued, running));
    }
    Ok(out)
}

/// Seconds per phase name in a job's `TRACE` (chrome-trace JSON whose
/// `dur` fields are microseconds).
fn phases(conn: &mut Conn, job: u64) -> Result<HashMap<String, f64>, String> {
    let reply = conn.call(&format!("TRACE {job}"))?;
    let mut out = HashMap::new();
    for event in reply
        .get("trace")
        .unwrap_or("")
        .split("{\"name\":\"")
        .skip(1)
    {
        let name = event.split('"').next().unwrap_or_default();
        let dur = event
            .split("\"dur\":")
            .nth(1)
            .and_then(|d| d.split([',', '}']).next())
            .and_then(|d| d.parse::<f64>().ok())
            .ok_or_else(|| format!("bad TRACE event {event:?}"))?;
        *out.entry(name.to_string()).or_insert(0.0) += dur / 1e6;
    }
    Ok(out)
}

/// Runs the workload for `args.seconds`; returns the end-to-end metrics
/// when untraced and the per-layer metrics when traced.
pub fn run(args: &Args, report: &mut Report) -> Result<Measured, String> {
    let mut order = Rng::new(args.seed, 1);
    let cases = kdc_bench::collections::planted_snapshot_cases();
    let (_, p200, _) = &cases[0];
    let (p2k, _) = gen::planted_defective_clique(2_000, 18, 2, 0.01, &mut gen::seeded_rng(11));
    let cl_edges = chung_lu_edges(20_000, 10.0, 2.3, &mut Rng::new(GRAPH_SEED, 0));
    let sweep: Vec<usize> = SWEEP_K.collect();
    let inputs = [
        Input::new(
            "p200",
            &args.work,
            p200.n(),
            &p200.edges().collect::<Vec<_>>(),
            &[COLD_K],
            &mut order,
        )?,
        Input::new("cl20k", &args.work, 20_000, &cl_edges, &sweep, &mut order)?,
        Input::new(
            "p2k",
            &args.work,
            p2k.n(),
            &p2k.edges().collect::<Vec<_>>(),
            &[2],
            &mut order,
        )?,
    ];

    // Kernel times bracket each boot, and the clients time it between
    // their episodes (see `calib`).
    let calibrator = Calibrator::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        calibrator.sample();
        let t = Instant::now();
        let d = boot(args, &inputs, i)?;
        setups.push((t, Instant::now()));
        calibrator.sample();
        if i + 1 < SETUPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one boot");
    let mut control = Conn::open(&daemon.addr)?;
    for (input, k) in [(&inputs[0], COLD_K), (&inputs[1], COLD_K), (&inputs[2], 2)] {
        let result = control
            .call(&format!("SOLVE {} k={k}", input.name))
            .and_then(|r| check_solve(&r, input, k, false));
        report.check(&format!("warm-up {} k={k}", input.name), result);
    }

    let mut collect_s = 0.0;
    let before = if args.trace {
        let t = Instant::now();
        let m = scrape(&mut control)?;
        collect_s += t.elapsed().as_secs_f64();
        m
    } else {
        HashMap::new()
    };
    let mut spans = Spans::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (addr, inputs, calibrator) = (&daemon.addr, &inputs, &calibrator);
                s.spawn(move || client(id, addr, inputs, args.seed, deadline, calibrator))
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let requests: Vec<&Request> = logs.iter().flat_map(|l| &l.requests).collect();
    let end = requests.iter().map(|r| r.end).max().unwrap_or(start);
    let window_s = (end - start).as_secs_f64();
    for log in &logs {
        let attempted = log.requests.len() as u64;
        report.tally("daemon replies", attempted, log.failures.len() as u64);
        for failure in log.failures.iter().take(5) {
            eprintln!("  {failure}");
        }
    }
    let latencies = |class: Class| -> Vec<f64> {
        requests
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.seconds())
            .collect()
    };

    if !args.trace {
        // The end-to-end metrics at the reference speed (see `calib`), or
        // unscaled.
        let measure = |scaled: bool| -> Values {
            let scale = |from: Instant, s: f64| {
                if scaled {
                    calibrator.scale(from, from + Duration::from_secs_f64(s))
                } else {
                    1.0
                }
            };
            let class = |class: Class| -> Vec<f64> {
                requests
                    .iter()
                    .filter(|r| r.class == class)
                    .map(|r| r.seconds() * scale(r.start, r.seconds()))
                    .collect()
            };
            let episodes = |f: fn(&ClientLog) -> &Vec<(Instant, f64)>| -> Vec<f64> {
                logs.iter()
                    .flat_map(f)
                    .map(|&(from, s)| s * scale(from, s))
                    .collect()
            };
            let setup: Vec<f64> = setups
                .iter()
                .map(|&(from, to)| {
                    let s = (to - from).as_secs_f64();
                    s * scale(from, s)
                })
                .collect();
            let mut values = Values::new();
            values.insert("setup_s", median(&setup));
            values.insert("solve_s", median(&episodes(|l| &l.solves)));
            values.insert("cold_p50_ms", median(&class(Class::Cold)) * 1e3);
            values.insert("load_p50_ms", median(&episodes(|l| &l.loads)) * 1e3);
            values.insert("memo_p50_ms", median(&class(Class::Memo)) * 1e3);
            values.insert(
                "req_per_s",
                requests.len() as f64 / (window_s * scale(start, window_s)),
            );
            values
        };
        let mut measured = Measured {
            values: measure(true),
            raw: measure(false),
            scale: Some(calibrator.overall()),
        };
        let peak = peak_rss_mb(&daemon.pid())?;
        measured.values.insert("peak_rss_mb", peak);
        measured.raw.insert("peak_rss_mb", peak);
        daemon.stop()?;
        return Ok(measured);
    }

    let mut values = Values::new();
    let t = Instant::now();
    let after = scrape(&mut control)?;
    let jobs = jobs(&mut control)?;
    let mut cold_phases = Vec::new();
    let mut search_s = 0.0;
    for r in requests
        .iter()
        .filter(|r| matches!(r.class, Class::Cold | Class::Sweep))
    {
        let p = phases(
            &mut control,
            r.job.ok_or("a solve reply carried no job id")?,
        )?;
        search_s += p.get("branch").copied().unwrap_or(0.0);
        if r.class == Class::Cold {
            cold_phases.push(p);
        }
    }
    collect_s += t.elapsed().as_secs_f64();
    values.insert("peak_rss_mb", peak_rss_mb(&daemon.pid())?);
    daemon.stop()?;

    let delta = |series: &str| {
        after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
    };
    let session = |name: &str| delta(&format!("kdc_session_{name}_total"));
    let phase = |name: &str| {
        median(
            &cold_phases
                .iter()
                .map(|p| p.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let cold = logs.iter().flat_map(|l| &l.cold);
    let cold_field =
        |f: fn(&(f64, f64, f64)) -> f64| median(&cold.clone().map(f).collect::<Vec<_>>());

    let parse_s = median(
        &logs
            .iter()
            .flat_map(|l| &l.parse_ms)
            .copied()
            .collect::<Vec<_>>(),
    ) / 1e3;
    values.insert("io.parse_s", parse_s);
    values.insert("io.parse_mb_per_s", inputs[1].bytes as f64 / 1e6 / parse_s);
    values.insert("heuristic.s", phase("peel"));
    values.insert("ctcp.tighten_s", phase("tighten"));
    values.insert("ctcp.removed_v", cold_field(|c| c.0));
    values.insert("ctcp.removed_e", cold_field(|c| c.1));
    let nodes = delta("kdc_session_nodes_total{preset=\"kdc\"}");
    values.insert("engine.search_s", search_s);
    values.insert("engine.nodes", nodes);
    values.insert("engine.nodes_per_s", nodes / search_s);
    values.insert("engine.universe_rebuilds", cold.clone().map(|c| c.2).sum());
    let mut bound_s = 0.0;
    for name in bound::NAMES {
        let series =
            |what: &str| delta(&format!("kdc_core_bound_{what}_total{{bound=\"{name}\"}}"));
        let seconds = series("ns") / 1e9;
        bound_s += seconds;
        insert_bound(
            &mut values,
            name,
            seconds,
            series("invocations") as u64,
            series("prunes") as u64,
        );
    }
    values.insert("engine.unattributed_s", search_s - bound_s);
    values.insert("session.ctcp_builds", session("ctcp_builds"));
    values.insert("session.ctcp_resumes", session("ctcp_resumes"));
    values.insert("session.peel_builds", session("peel_builds"));
    let hits = session("result_hits");
    values.insert("session.memo_hit_ratio", hits / (hits + session("solves")));
    values.insert("batch.ctcp_shares", session("batch_ctcp_shares"));
    values.insert("batch.witness_seeds", session("batch_witness_seeds"));
    values.insert(
        "batch.nodes",
        logs.iter().map(|l| l.sweep_nodes).sum::<u64>() as f64,
    );

    let (mut queued, mut running, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    let (mut served_s, mut client_s) = (0.0, 0.0);
    for (i, r) in requests.iter().enumerate() {
        let id = spans.record(r.class.name(), None, i as u64, r.start, r.end);
        let Some(&(q, run)) = r.job.and_then(|job| jobs.get(&job)) else {
            continue;
        };
        spans.field(id, "queued_ns", q as u64);
        spans.field(id, "running_ns", run as u64);
        queued.push(q / 1e6);
        running.push(run / 1e6);
        wire.push(r.seconds() * 1e3 - (q + run) / 1e6);
        served_s += (q + run) / 1e9;
        client_s += r.seconds();
    }
    spans.write_jsonl(&args.trace_path())?;
    values.insert("service.queue_wait_p50_ms", median(&queued));
    values.insert("service.queue_wait_p99_ms", quantile(&queued, 0.99));
    values.insert("service.job_p50_ms", median(&running));
    values.insert("service.wire_p50_ms", median(&wire));
    values.insert(
        "service.busy_rejections",
        delta("kdc_service_busy_rejections_total"),
    );
    values.insert(
        "service.conn_errors",
        delta("kdc_service_conn_errors_total"),
    );
    values.insert(
        "store.journal_appends",
        delta("kdc_store_journal_appends_total"),
    );
    values.insert(
        "store.snapshot_writes",
        delta("kdc_store_snapshot_writes_total"),
    );
    let all: Vec<f64> = requests.iter().map(|r| r.seconds()).collect();
    let (tail_s, tail_pct) = tail(&all);
    values.insert(
        "client.sweep_p50_ms",
        median(&latencies(Class::Sweep)) * 1e3,
    );
    values.insert("client.latency_tail_ms", tail_s * 1e3);
    values.insert("client.latency_tail_pct", tail_pct);
    values.insert("client.requests", all.len() as f64);
    values.insert("trace.coverage", served_s / client_s);
    values.insert("trace.overhead_pct", collect_s / window_s * 100.0);
    Ok(Measured {
        values,
        ..Measured::default()
    })
}
