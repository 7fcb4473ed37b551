//! The solver workloads (no daemon). Every timed solve goes from a graph
//! file to a checked answer through public calls: `kdc_graph::io` parses
//! the file, a fresh `kdc_api::Session` solves it (peeling, CTCP reducer,
//! heuristic, search), and the answer is compared with the reference an
//! in-process `kdc::Solver` computes once per run, and with the pinned
//! optimum.
//!
//! - `sparse-cold`: a Chung–Lu power-law graph (n = 100,000, average
//!   degree 10, β = 2.3; m = 489,379, optimum 49 at k = 3). Preprocessing
//!   decides its time; the search is a few dozen nodes.
//! - `dense-search`: the planted instances `planted-200-k3` and
//!   `planted-220-k3` of `BENCH_6.json`, both per solve. The search decides
//!   their time. The instances are fixed (pinned by n, m and a hash of
//!   their edges) so that runs stay comparable with the committed
//!   snapshots; the seed orders the edges in the files.
//!
//! An untraced run times its solves in a separate solver process (this
//! binary, `solver-process` mode), so that `setup_s` and `peak_rss_mb`
//! describe the process doing the work, not the harness that generates and
//! checks the inputs. A traced run (`--trace 1`) stays in this process and
//! alternates one solve as above with one solve that calls each layer
//! itself inside a span: `io::read_graph`, `degeneracy::peel`,
//! `heuristic::degen_opt_with`, `Ctcp::with_rules`, `Ctcp::tighten` and a
//! `Solver::solve` that reuses those artifacts.

use crate::calib::Calibrator;
use crate::gen::{chung_lu_edges, write_dimacs, Rng};
use crate::report::{median, peak_rss_mb, Report, Spans};
use crate::{verify_witness, Args, Measured, Values, END_TO_END};
use kdc::{bound, heuristic, BoundCost, Solver, SolverConfig};
use kdc_api::Session;
use kdc_graph::ctcp::Ctcp;
use kdc_graph::{degeneracy, io, Graph};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which of the two solver workloads to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SparseCold,
    DenseSearch,
}

/// Seed of the Chung–Lu graphs themselves. Graphs drawn from different
/// seeds differ by tens of percent in preprocessing time (the optimum and
/// the hubs' neighbourhoods move), which would swamp the run-to-run
/// comparison the benchmark exists for. So, as for the planted instances,
/// `--seed` draws the order and orientation of the edges in the files
/// (and the daemon clients' request scripts), not the graphs.
pub const GRAPH_SEED: u64 = 7;
/// Solver-process launches per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed solves per run, at least, however long they take.
const MIN_SOLVES: usize = 3;
/// Repeated queries per memo timing sample, and samples after each solve.
const MEMO_BATCH: u32 = 256;
const MEMO_SAMPLES: usize = 16;

/// A fixed instance: its identity (n, m and [`edge_hash`]) and its optimum
/// at k.
struct Pinned {
    name: &'static str,
    n: usize,
    m: usize,
    edge_hash: u64,
    k: usize,
    size: usize,
}

const PINNED: [Pinned; 3] = [
    Pinned {
        name: "cl100k",
        n: 100_000,
        m: 489_379,
        edge_hash: 0x1951_75e1_73cd_5f13,
        k: 3,
        size: 49,
    },
    Pinned {
        name: "planted-200-k3",
        n: 200,
        m: 5_983,
        edge_hash: 0xb081_0d30_c8ed_c4f4,
        k: 3,
        size: 14,
    },
    Pinned {
        name: "planted-220-k3",
        n: 220,
        m: 6_725,
        edge_hash: 0x8c9d_bece_32a2_a886,
        k: 3,
        size: 14,
    },
];

/// Search nodes of the planted instances in `BENCH_6.json`. Logged beside
/// each run's reference solve and asserted by a unit test; not a check on
/// the timed solves, which a tighter bound may legitimately speed up by
/// exploring fewer nodes.
const BENCH_6_NODES: [(&str, u64); 2] = [("planted-200-k3", 53_442), ("planted-220-k3", 27_476)];

/// FNV-1a over the graph's edges in `Graph::edges` order (each `u < v`,
/// ascending): two graphs with the same hash have the same edges.
fn edge_hash(g: &Graph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (u, v) in g.edges() {
        for byte in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Checks that `g` is the pinned instance `name` (at `k`).
fn check_identity(name: &str, g: &Graph, k: usize) -> Result<&'static Pinned, String> {
    let pinned = PINNED
        .iter()
        .find(|p| p.name == name)
        .ok_or_else(|| format!("{name} has no pinned identity"))?;
    let found = (g.n(), g.m(), edge_hash(g), k);
    if found != (pinned.n, pinned.m, pinned.edge_hash, pinned.k) {
        return Err(format!(
            "n={} m={} edges={:#018x} k={} is not the pinned instance",
            found.0, found.1, found.2, found.3
        ));
    }
    Ok(pinned)
}

/// One input graph with its reference answer.
struct Case {
    name: &'static str,
    path: PathBuf,
    bytes: u64,
    graph: Graph,
    k: usize,
    /// Optimum size found by the in-process reference solve.
    size: usize,
}

/// Checks each case's identity and solves its graph in process for its
/// reference answer, which must be the pinned optimum.
fn reference(cases: &mut [Case], report: &mut Report) {
    for case in cases {
        let solution = Solver::new(&case.graph, case.k, SolverConfig::kdc()).solve();
        case.size = solution.size();
        let result = check_identity(case.name, &case.graph, case.k).and_then(|pinned| {
            if solution.is_optimal() && solution.size() == pinned.size {
                Ok(())
            } else {
                Err(format!(
                    "size {} (optimal: {}) differs from the pinned optimum {}",
                    solution.size(),
                    solution.is_optimal(),
                    pinned.size
                ))
            }
        });
        report.check(&format!("{} reference", case.name), result);
        let bench_6 = BENCH_6_NODES
            .iter()
            .find(|b| b.0 == case.name)
            .map_or(String::new(), |b| format!(" (BENCH_6.json: {})", b.1));
        eprintln!(
            "{}: n={} m={} k={} optimum={} reference nodes={}{bench_6}",
            case.name,
            case.graph.n(),
            case.graph.m(),
            case.k,
            case.size,
            solution.stats.nodes
        );
    }
}

/// One graph of a workload: name, n, edges and k.
type Instance = (&'static str, usize, Vec<(u32, u32)>, usize);

/// The workload's graphs.
fn instances(kind: Kind) -> Vec<Instance> {
    match kind {
        Kind::SparseCold => {
            let n = 100_000;
            vec![(
                "cl100k",
                n,
                chung_lu_edges(n, 10.0, 2.3, &mut Rng::new(GRAPH_SEED, 0)),
                3,
            )]
        }
        Kind::DenseSearch => kdc_bench::collections::planted_snapshot_cases()
            .into_iter()
            .map(|(name, g, k)| (name, g.n(), g.edges().collect(), k))
            .collect(),
    }
}

/// Writes the workload's files; returns its cases without their answers.
fn prepare(kind: Kind, seed: u64, dir: &Path) -> Result<Vec<Case>, String> {
    let mut order = Rng::new(seed, 1);
    let mut cases = Vec::new();
    for (name, n, edges, k) in instances(kind) {
        let path = dir.join(format!("{name}.clq"));
        write_dimacs(&path, n, &edges, &mut order)?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        cases.push(Case {
            name,
            path,
            bytes,
            graph: Graph::from_edges(n, &edges),
            k,
            size: 0,
        });
    }
    Ok(cases)
}

/// Checks one answer against the case's reference.
fn check_answer(case: &Case, witness: &[u32], optimal: bool) -> Result<(), String> {
    if !optimal {
        return Err("not proven optimal".into());
    }
    if witness.len() != case.size {
        return Err(format!("size {} != reference {}", witness.len(), case.size));
    }
    verify_witness(&case.graph, witness, case.k)
}

/// What one file → answer solve through a fresh `Session` measured.
struct SessionSolve {
    load_s: f64,
    cold_s: f64,
    witness: Vec<u32>,
    optimal: bool,
    nodes: u64,
    /// Seconds per memo-answered query, one per batch.
    memo: Vec<f64>,
    /// Memo queries answered from the memo with the same witness.
    memo_hits: u32,
    counters: kdc_api::SessionCounters,
}

/// Parses the file into a fresh session (load), solves it (cold), then
/// times `MEMO_SAMPLES` batches of the same query, which the session
/// answers from its result memo.
fn session_solve(path: &Path, k: usize) -> Result<SessionSolve, String> {
    let t0 = Instant::now();
    let graph = io::read_graph(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let session = Session::new(graph);
    let t1 = Instant::now();
    let out = session.solve(k);
    let t2 = Instant::now();
    let witness = out.best().unwrap_or_default().to_vec();
    let (mut memo, mut memo_hits) = (Vec::new(), 0);
    for _ in 0..MEMO_SAMPLES {
        let t = Instant::now();
        for _ in 0..MEMO_BATCH {
            let again = std::hint::black_box(session.solve(k));
            memo_hits +=
                u32::from(again.cache.result_memo_hit && again.best() == Some(&witness[..]));
        }
        memo.push(t.elapsed().as_secs_f64() / f64::from(MEMO_BATCH));
    }
    Ok(SessionSolve {
        load_s: (t1 - t0).as_secs_f64(),
        cold_s: (t2 - t1).as_secs_f64(),
        witness,
        optimal: out.is_optimal(),
        nodes: out.stats.nodes,
        memo,
        memo_hits,
        counters: session.counters(),
    })
}

/// Memo queries per solve.
fn memo_queries() -> u32 {
    MEMO_BATCH * MEMO_SAMPLES as u32
}

/// The solver process: `solver-process <seconds> (<k> <file>)...`.
///
/// Set-up loads every file into a session and peels it, as a server would
/// before taking requests, then prints `ready`. On `go` from stdin it
/// solves every file cold in a fresh session, back to back, for
/// `<seconds>` (at least [`MIN_SOLVES`] times), and prints one
/// `answer <case> <optimal> <nodes> <memo hits> <memo queries> <witness>`
/// line per solve, one `metric <name> <value> <raw value>` line per
/// end-to-end metric it measures, and `scale <median calibration scale>`.
/// On end of input instead of `go` it exits.
pub fn solver_process(args: &[String]) -> Result<(), String> {
    let usage = "usage: solver-process <seconds> (<k> <file>)...";
    let (seconds, pairs) = args.split_first().ok_or(usage)?;
    let seconds: u64 = seconds.parse().map_err(|_| usage)?;
    if pairs.is_empty() || pairs.len() % 2 != 0 {
        return Err(usage.into());
    }
    let mut cases = Vec::new();
    for pair in pairs.chunks(2) {
        let k: usize = pair[0].parse().map_err(|_| usage)?;
        cases.push((k, PathBuf::from(&pair[1])));
    }
    let ready = cases
        .iter()
        .map(|(_, path)| {
            let graph = io::read_graph(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let session = Session::new(graph);
            session.peeling();
            Ok(session)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut stdout = std::io::stdout().lock();
    let mut say = |line: String| writeln!(stdout, "{line}").and_then(|()| stdout.flush());
    say("ready".into()).map_err(|e| e.to_string())?;
    drop(ready);
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    if line.trim() != "go" {
        return Ok(());
    }

    // Kernel times bracket every solve (see `calib`).
    let calibrator = Calibrator::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut reps = Vec::new();
    let mut answers = Vec::new();
    while reps.len() < MIN_SOLVES || Instant::now() < deadline {
        calibrator.sample();
        let t = Instant::now();
        let (mut l, mut c, mut m) = (0.0, 0.0, Vec::new());
        for (i, (k, path)) in cases.iter().enumerate() {
            let s = session_solve(path, *k)?;
            l += s.load_s;
            c += s.cold_s;
            m.extend(s.memo);
            answers.push((i, s.optimal, s.nodes, s.memo_hits, s.witness));
        }
        reps.push((t, Instant::now(), l, c, m));
    }
    calibrator.sample();
    let peak = peak_rss_mb("self")?;

    for (i, optimal, nodes, hits, witness) in answers {
        let list: Vec<String> = witness.iter().map(u32::to_string).collect();
        say(format!(
            "answer {i} {} {nodes} {hits} {} {}",
            u8::from(optimal),
            memo_queries(),
            list.join(",")
        ))
        .map_err(|e| e.to_string())?;
    }
    let measure = |scaled: bool| -> Values {
        let (mut load, mut cold, mut solve, mut memo) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (from, to, l, c, m) in &reps {
            let f = if scaled {
                calibrator.scale(*from, *to)
            } else {
                1.0
            };
            load.push(l * f);
            cold.push(c * f);
            solve.push((l + c) * f);
            memo.extend(m.iter().map(|s| s * f));
        }
        let mut values = Values::new();
        values.insert("solve_s", median(&solve));
        values.insert("cold_p50_ms", median(&cold) * 1e3);
        values.insert("load_p50_ms", median(&load) * 1e3);
        values.insert("memo_p50_ms", median(&memo) * 1e3);
        values.insert("req_per_s", solve.len() as f64 / solve.iter().sum::<f64>());
        values.insert("peak_rss_mb", peak);
        values
    };
    let (values, raw) = (measure(true), measure(false));
    for (name, value) in &values {
        say(format!("metric {name} {value} {}", raw[name])).map_err(|e| e.to_string())?;
    }
    say(format!("scale {}", calibrator.overall())).map_err(|e| e.to_string())
}

/// A running solver process, killed and reaped on drop if still alive.
struct SolverProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl SolverProcess {
    /// Launches the solver process on the cases' files and waits until it
    /// reports `ready`.
    fn start(cases: &[Case], seconds: u64) -> Result<SolverProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut command = Command::new(exe);
        command.arg("solver-process").arg(seconds.to_string());
        for case in cases {
            command.arg(case.k.to_string()).arg(&case.path);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the solver process: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut process = SolverProcess {
            child,
            stdin,
            stdout,
        };
        let mut line = String::new();
        process
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if line.trim() != "ready" {
            return Err(format!("solver process did not start: {line:?}"));
        }
        Ok(process)
    }

    /// Closes its input, which ends a process that has not been told to go,
    /// and waits for it to exit successfully.
    fn finish(&mut self) -> Result<(), String> {
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("solver process failed: {status}"))
        }
    }

    /// Lets the process run its timed solves; returns its output lines.
    fn run(mut self) -> Result<Vec<String>, String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until finish");
        stdin.write_all(b"go\n").map_err(|e| e.to_string())?;
        let lines = (&mut self.stdout)
            .lines()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        self.finish()?;
        Ok(lines)
    }
}

impl Drop for SolverProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Checks one `answer` line of the solver process: the witness against the
/// case's reference, and the memo answers that followed it.
fn check_answer_line(cases: &[Case], line: &str, report: &mut Report) -> Result<(), String> {
    let bad = || format!("bad answer line {line:?}");
    let fields: Vec<&str> = line.split(' ').collect();
    let [_, case, optimal, _nodes, hits, queries, witness] = fields[..] else {
        return Err(bad());
    };
    let case = cases
        .get(case.parse::<usize>().map_err(|_| bad())?)
        .ok_or_else(bad)?;
    let witness = match witness {
        "" => Vec::new(),
        list => list
            .split(',')
            .map(|v| v.parse().map_err(|_| bad()))
            .collect::<Result<Vec<u32>, _>>()?,
    };
    report.check(case.name, check_answer(case, &witness, optimal == "1"));
    let hits: u64 = hits.parse().map_err(|_| bad())?;
    let queries: u64 = queries.parse().map_err(|_| bad())?;
    report.tally(
        &format!("{} memo answers", case.name),
        queries,
        queries.saturating_sub(hits),
    );
    Ok(())
}

/// The untraced run: `SETUPS` launches of the solver process, the last of
/// which runs the timed solves; every answer is checked here.
fn untraced(cases: &[Case], args: &Args, report: &mut Report) -> Result<Measured, String> {
    // Kernel times bracket every launch (see `calib`).
    let calibrator = Calibrator::default();
    let mut setups = Vec::new();
    let mut process = None;
    for i in 0..SETUPS {
        calibrator.sample();
        let t = Instant::now();
        let mut p = SolverProcess::start(cases, args.seconds)?;
        setups.push((t, Instant::now()));
        if i + 1 < SETUPS {
            p.finish()?;
        } else {
            process = Some(p);
        }
    }
    calibrator.sample();
    let lines = process.expect("at least one launch").run()?;

    let mut measured = Measured::default();
    let setup = |scaled: bool| -> f64 {
        let s: Vec<f64> = setups
            .iter()
            .map(|&(from, to)| {
                if scaled {
                    calibrator.seconds(from, to)
                } else {
                    (to - from).as_secs_f64()
                }
            })
            .collect();
        median(&s)
    };
    measured.values.insert("setup_s", setup(true));
    measured.raw.insert("setup_s", setup(false));
    for line in &lines {
        let mut words = line.split(' ');
        match words.next() {
            Some("answer") => check_answer_line(cases, line, report)?,
            Some("metric") => {
                let bad = || format!("bad metric line {line:?}");
                let name = words.next().ok_or_else(bad)?;
                let name = END_TO_END
                    .iter()
                    .map(|e| e.0)
                    .find(|n| *n == name)
                    .ok_or_else(bad)?;
                let mut value = || -> Result<f64, String> {
                    words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)
                };
                measured.values.insert(name, value()?);
                measured.raw.insert(name, value()?);
            }
            Some("scale") => {
                measured.scale = words.next().and_then(|v| v.parse().ok());
            }
            _ => return Err(format!("unexpected solver process output {line:?}")),
        }
    }
    Ok(measured)
}

/// Per-layer numbers of one traced solve (summed over a solve's cases).
#[derive(Default)]
struct Layers {
    root_s: f64,
    parse_s: f64,
    peel_s: f64,
    heuristic_s: f64,
    build_s: f64,
    tighten_s: f64,
    lb_gap: f64,
    removed_v: f64,
    removed_e: f64,
    survivor_n: f64,
    survivor_m: f64,
    search_s: f64,
    nodes: f64,
    rebuilds: f64,
    bounds: [BoundCost; bound::COUNT],
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.root_s += o.root_s;
        self.parse_s += o.parse_s;
        self.peel_s += o.peel_s;
        self.heuristic_s += o.heuristic_s;
        self.build_s += o.build_s;
        self.tighten_s += o.tighten_s;
        self.lb_gap += o.lb_gap;
        self.removed_v += o.removed_v;
        self.removed_e += o.removed_e;
        self.survivor_n += o.survivor_n;
        self.survivor_m += o.survivor_m;
        self.search_s += o.search_s;
        self.nodes += o.nodes;
        self.rebuilds += o.rebuilds;
        for (mine, theirs) in self.bounds.iter_mut().zip(&o.bounds) {
            mine.invocations += theirs.invocations;
            mine.prunes += theirs.prunes;
            mine.ns += theirs.ns;
        }
    }
}

/// One traced file → answer solve: each layer is called directly inside
/// its own span, and the final `Solver::solve` reuses the traced peeling,
/// reducer and heuristic witness instead of rebuilding them. Returns the
/// layer numbers, the root span id and the witness.
fn traced_solve(
    case: &Case,
    spans: &mut Spans,
    request: u64,
) -> Result<(Layers, usize, Vec<u32>), String> {
    let config = SolverConfig::kdc();
    let root = spans.open("solve", None, request);
    let graph = spans
        .timed("io::read_graph", Some(root), request, || {
            io::read_graph(&case.path)
        })
        .map_err(|e| format!("{}: {e}", case.path.display()))?;
    let peeling = spans.timed("degeneracy::peel", Some(root), request, || {
        Arc::new(degeneracy::peel(&graph))
    });
    let initial = spans.timed("heuristic::degen_opt_with", Some(root), request, || {
        heuristic::degen_opt_with(&graph, case.k, &peeling)
    });
    let mut ctcp = spans.timed("Ctcp::with_rules", Some(root), request, || {
        Ctcp::with_rules(&graph, case.k, config.enable_rr5, config.enable_rr6)
    });
    let removed = spans.timed("Ctcp::tighten", Some(root), request, || {
        ctcp.tighten(initial.len())
    });
    let (survivor_n, survivor_m) = (ctcp.alive_n(), ctcp.alive_m());
    let config = config
        .with_shared_peeling(peeling)
        .with_shared_ctcp(Arc::new(Mutex::new(ctcp)))
        .with_seed_solution(initial.clone());
    let solution = spans.timed("Solver::solve", Some(root), request, || {
        Solver::new(&graph, case.k, config).solve()
    });
    spans.close(root);
    let stats = &solution.stats;
    let layers = Layers {
        root_s: spans.seconds(root),
        parse_s: spans.child_seconds(root, "io::read_graph"),
        peel_s: spans.child_seconds(root, "degeneracy::peel"),
        heuristic_s: spans.child_seconds(root, "heuristic::degen_opt_with"),
        build_s: spans.child_seconds(root, "Ctcp::with_rules"),
        tighten_s: spans.child_seconds(root, "Ctcp::tighten"),
        lb_gap: case.size.saturating_sub(initial.len()) as f64,
        removed_v: (removed.vertices.len() as u64 + stats.ctcp_vertex_removals) as f64,
        removed_e: (removed.edges + stats.ctcp_edge_removals) as f64,
        survivor_n: survivor_n as f64,
        survivor_m: survivor_m as f64,
        search_s: stats.search_time.as_secs_f64(),
        nodes: stats.nodes as f64,
        rebuilds: stats.universe_rebuilds as f64,
        bounds: stats.bound_costs,
    };
    check_answer(case, &solution.vertices, solution.is_optimal())?;
    Ok((layers, root, solution.vertices))
}

/// Runs one solver workload for `args.seconds` and returns its metrics:
/// the end-to-end set when untraced, the per-layer set when traced.
pub fn run(kind: Kind, args: &Args, report: &mut Report) -> Result<Measured, String> {
    let mut cases = prepare(kind, args.seed, &args.work)?;
    reference(&mut cases, report);
    if !args.trace {
        return untraced(&cases, args, report);
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut spans = Spans::default();
    let (mut plain, mut reps) = (Vec::new(), Vec::<Layers>::new());
    let mut coverage = f64::INFINITY;
    let mut counters = Vec::new();
    let mut request = 0;
    while reps.len() < 2 || Instant::now() < deadline {
        let mut untraced = 0.0;
        let mut witnesses = Vec::new();
        counters.clear();
        for case in &cases {
            let s = session_solve(&case.path, case.k)?;
            report.check(case.name, check_answer(case, &s.witness, s.optimal));
            report.tally(
                &format!("{} memo answers", case.name),
                u64::from(memo_queries()),
                u64::from(memo_queries() - s.memo_hits),
            );
            untraced += s.load_s + s.cold_s;
            witnesses.push(s.witness);
            counters.push(s.counters);
        }
        let mut rep = Layers::default();
        for (case, witness) in cases.iter().zip(&witnesses) {
            request += 1;
            let traced = traced_solve(case, &mut spans, request);
            let same = match &traced {
                Ok((_, _, w)) if w == witness => Ok(()),
                Ok(_) => Err("traced witness differs from the untraced one".to_string()),
                Err(e) => Err(e.clone()),
            };
            report.check(&format!("{} traced", case.name), same);
            if let Ok((layers, root, _)) = traced {
                coverage = coverage.min(spans.coverage(root));
                rep.add(&layers);
            }
        }
        plain.push(untraced);
        reps.push(rep);
    }
    report.check(
        "trace coverage",
        if coverage >= 0.95 {
            Ok(())
        } else {
            Err(format!(
                "child spans cover {:.1}% of the solve",
                coverage * 100.0
            ))
        },
    );
    spans.write_jsonl(&args.trace_path())?;

    let mut values = Values::new();
    let med = |f: fn(&Layers) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let last = reps.last().expect("at least two traced solves");
    let bytes: u64 = cases.iter().map(|c| c.bytes).sum();
    let parse_s = med(|l| l.parse_s);
    let search_s = med(|l| l.search_s);
    values.insert("io.parse_s", parse_s);
    values.insert("io.parse_mb_per_s", bytes as f64 / 1e6 / parse_s);
    values.insert("degeneracy.peel_s", med(|l| l.peel_s));
    values.insert("heuristic.s", med(|l| l.heuristic_s));
    values.insert("heuristic.lb_gap", last.lb_gap);
    values.insert("ctcp.build_s", med(|l| l.build_s));
    values.insert("ctcp.tighten_s", med(|l| l.tighten_s));
    values.insert("ctcp.removed_v", last.removed_v);
    values.insert("ctcp.removed_e", last.removed_e);
    values.insert("ctcp.survivor_n", last.survivor_n);
    values.insert("ctcp.survivor_m", last.survivor_m);
    values.insert("engine.search_s", search_s);
    values.insert("engine.nodes", last.nodes);
    values.insert("engine.nodes_per_s", last.nodes / search_s);
    values.insert("engine.universe_rebuilds", last.rebuilds);
    let bound_s = med(|l| l.bounds.iter().map(|b| b.ns as f64 / 1e9).sum());
    values.insert("engine.unattributed_s", search_s - bound_s);
    for (i, name) in bound::NAMES.iter().enumerate() {
        let b = last.bounds[i];
        let seconds = median(
            &reps
                .iter()
                .map(|l| l.bounds[i].ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        );
        insert_bound(&mut values, name, seconds, b.invocations, b.prunes);
    }
    let sum = |f: fn(&kdc_api::SessionCounters) -> u64| counters.iter().map(f).sum::<u64>() as f64;
    values.insert("session.ctcp_builds", sum(|c| c.ctcp_builds));
    values.insert("session.ctcp_resumes", sum(|c| c.ctcp_resumes));
    values.insert("session.peel_builds", sum(|c| c.peel_builds));
    let hits = sum(|c| c.result_hits);
    values.insert("session.memo_hit_ratio", hits / (hits + sum(|c| c.solves)));
    values.insert("trace.coverage", coverage);
    values.insert(
        "trace.overhead_pct",
        (med(|l| l.root_s) / median(&plain) - 1.0) * 100.0,
    );
    Ok(Measured {
        values,
        ..Measured::default()
    })
}

/// Records the three per-bound metrics of bound `name`.
pub fn insert_bound(values: &mut Values, name: &str, seconds: f64, invocations: u64, prunes: u64) {
    let key = |suffix: &str| -> &'static str {
        crate::PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == format!("bound.{name}_{suffix}"))
            .expect("every bound has its metrics listed")
    };
    values.insert(key("s"), seconds);
    values.insert(key("invocations"), invocations as f64);
    values.insert(key("prune_rate"), prunes as f64 / invocations.max(1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generated instances are the pinned ones, and the planted ones
    /// still take the search the committed `BENCH_6.json` records, so this
    /// benchmark and the snapshots describe the same instances.
    #[test]
    fn instances_are_pinned_and_planted_ones_match_bench_6() {
        for kind in [Kind::SparseCold, Kind::DenseSearch] {
            for (name, n, edges, k) in instances(kind) {
                let graph = Graph::from_edges(n, &edges);
                let pinned = check_identity(name, &graph, k).unwrap();
                let Some(&(_, nodes)) = BENCH_6_NODES.iter().find(|b| b.0 == name) else {
                    continue;
                };
                let solution = Solver::new(&graph, k, SolverConfig::kdc()).solve();
                assert!(solution.is_optimal(), "{name}");
                assert_eq!(solution.size(), pinned.size, "{name}");
                assert_eq!(solution.stats.nodes, nodes, "{name}");
            }
        }
    }

    #[test]
    fn edge_hash_tells_graphs_apart() {
        let a = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = Graph::from_edges(4, &[(2, 3), (1, 2), (0, 1)]);
        let c = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        assert_eq!(edge_hash(&a), edge_hash(&b));
        assert_ne!(edge_hash(&a), edge_hash(&c));
    }
}
