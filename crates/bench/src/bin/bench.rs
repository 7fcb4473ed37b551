//! `bench`: the suite's machine-readable perf baseline, written to
//! `BENCH_9.json`, with one checker (`kdc_bench::baseline`).
//!
//! Three suites run in order, all on fixed-seed planted graphs:
//!
//! * **solve** — each planted case in three variants: the flagship `kdc`
//!   preset on the word-parallel kernel, the same preset on the scalar
//!   kernel (`kdc-scalar`, the speedup baseline) and `kdclub` (the
//!   re-colouring bound, the node-reduction headline). Each case records
//!   nodes, solution size, per-bound cost attribution (invocations /
//!   prunes / ns / prune rate for UB3, UB1 and KD-Club) and the
//!   per-phase nanoseconds of the tracer spans `kdc solve --profile`
//!   prints. Plus one CTCP reducer tightened across a rising lower-bound
//!   schedule against a fresh reducer at every step of it, the
//!   tie-ordered degeneracy peel against the O(n + m) bucket peel on
//!   `rmat16`, `Degen-opt` and the CTCP reducer (its build, and build plus
//!   one tighten) on `rmat16` at `k = 3`, and `io::read_graph` of `rmat16`
//!   as DIMACS.
//! * **batch** — `planted-200-k3` swept as one batch over `k = 0..=4`
//!   versus five fresh-session cold solves. Answers must be byte-identical
//!   and the sweep must share at least one reducer pass and seed at least
//!   one lower bound.
//! * **recovery** — a cold solve versus a warm restart: the proven state
//!   goes through a real on-disk [`kdc_store::Store`], a new session is
//!   rebuilt from its replay and re-asked; the recovered memo must answer,
//!   byte-identical to the cold solve.
//!
//! Every run checks the same-run ratio gates (kdclub/kdc nodes, word/scalar
//! wall, warm/fresh CTCP wall, tie-ordered/bucket peel wall,
//! Degen-opt/tie-ordered peel wall, reducer build/bucket peel and cold
//! reducer/bucket peel wall, read_graph/bucket peel wall, batch/cold nodes
//! and wall, warm/cold nodes), which hold on any machine.
//! `--check` also gates node counts (5%) and solution sizes against a
//! committed baseline; it reads any `BENCH_*.json` since `BENCH_5`, so
//! older snapshots stay checkable. Wall-clock against a baseline is
//! reported, never gated. Writing a snapshot also measures the
//! observability layer's cost (planted-200 with `kdc_obs` enabled vs
//! disabled; target ≤ 2%, reported only).
//!
//! Usage: `bench [--out PATH] [--check [PATH]] [--reps N]`.

use kdc::{bound, heuristic, Solver, SolverConfig};
use kdc_api::{Budget, Options, Outcome, Session, SubQuery};
use kdc_bench::baseline::{self, median_ns, warm_median_ns, Case, Gate, Measure};
use kdc_graph::ctcp::Ctcp;
use kdc_graph::degeneracy::{self, BucketPeel};
use kdc_graph::{gen, Graph};
use kdc_service::{export_graph_state, import_graph_state};
use kdc_store::Store;
use std::path::Path;

/// Default snapshot path, relative to the invocation directory (the
/// workspace root under `cargo run`).
const DEFAULT_PATH: &str = "BENCH_9.json";

/// Bound on `read_graph / bucket peel` wall on rmat16. The line-batched
/// tokenizer behind a 64 KiB buffer measured 2.1 to 3.3 over five
/// `--reps 3` runs on a 2-vCPU VM; the byte tokenizer it replaced measured
/// 5.0 to 5.3 in alternating runs there (3.7 to 5.4 when its gate was
/// set), so a return to that reader fails the gate.
const READ_GRAPH_MAX: f64 = 4.5;

/// Bound on `Degen-opt / tie-ordered peel` wall on rmat16 at k = 3. The
/// L0-core-bounded, bit-row Degen-opt measured 10 to 12 over four
/// `--reps 3` runs on a 2-vCPU VM; the loop over every ego with list-built
/// subgraphs it replaced measured 21 to 30.
const DEGEN_OPT_MAX: f64 = 16.0;

/// The lower bound `Degen-opt` finds on rmat16 at k = 3.
const RMAT16_K3_LB: usize = 39;

/// Bound on `reducer build / bucket peel` wall on rmat16 at k = 3: a
/// `Ctcp::with_peeling` alone. The reducer that copies the CSR and
/// indexes nothing before its support count measured 0.05 to 0.08 over
/// 16 same-run samples on a 2-vCPU VM (0.08 in a `--reps 3` check); the
/// one that built its edge index and per-edge arrays over every edge
/// measured 0.99 to 1.34.
const CTCP_BUILD_MAX: f64 = 0.3;

/// Bound on `cold reducer / bucket peel` wall on rmat16 at k = 3: the
/// build plus one `tighten(RMAT16_K3_LB)`. About twice the highest ratio
/// measured (33 to 48 over 16 same-run samples on a 2-vCPU VM; 52 to 88
/// with the index over every edge), so it catches a tighten gone
/// superlinear rather than a constant factor; the removal counts
/// asserted beside it pin the answer.
const CTCP_COLD_MAX: f64 = 100.0;

/// `(vertices, edges)` the cold reducer removes on rmat16 at k = 3 and
/// lb = `RMAT16_K3_LB`: all but 691 vertices and 47,108 edges.
const RMAT16_K3_REMOVALS: (usize, u64) = (64_845, 430_762);

/// The defect budgets of the batch sweep.
const K_SWEEP: std::ops::RangeInclusive<usize> = 0..=4;

/// A suite's measured cases and the same-run gates over them.
type Suite = (Vec<Case>, Vec<Gate>);

fn gate(measure: Measure, num: String, den: String, max: f64, why: &'static str) -> Gate {
    Gate {
        measure,
        num,
        den,
        max,
        why,
    }
}

/// The planted-2k case is preprocessing-bound: the classic low-noise plant
/// collapses to the planted set before any search, pinning the heuristic +
/// CTCP wall-clock. The CTCP schedule cases reuse it.
fn planted_2k() -> Graph {
    gen::planted_defective_clique(2_000, 18, 2, 0.01, &mut gen::seeded_rng(11)).0
}

/// Measures one (graph, k, config) solve variant. The untimed reference
/// run carries a tracer for the per-phase columns; the timed runs do not.
fn solve_case(name: String, g: &Graph, k: usize, cfg: &SolverConfig, reps: usize) -> Case {
    let trace = kdc_obs::Tracer::new();
    let mut traced = cfg.clone();
    traced.trace = Some(trace.clone());
    let reference = Solver::new(g, k, traced).solve();
    assert!(
        reference.is_optimal(),
        "{name}: case must solve to optimality"
    );
    let median = warm_median_ns(reps, || {
        let sol = Solver::new(g, k, cfg.clone()).solve();
        assert_eq!(
            sol.stats.nodes, reference.stats.nodes,
            "{name}: node counts must be deterministic"
        );
    });
    let s = &reference.stats;
    let mut case = Case::new(name, median, reps)
        .with("nodes", s.nodes)
        .with("bound_prunes", s.bound_prunes)
        .with("size", reference.size() as u64);
    // Per-bound cost attribution, in the engine's evaluation order. The
    // prune rate is what tells whether a bound earns its nanoseconds.
    for (i, cost) in s.bound_costs.iter().enumerate() {
        let b = bound::NAMES[i];
        case = case
            .with(format!("{b}_invocations"), cost.invocations)
            .with(format!("{b}_prunes"), cost.prunes)
            .with(format!("{b}_ns"), cost.ns);
        let rate = cost.prunes as f64 / cost.invocations.max(1) as f64;
        case.rates.push((format!("{b}_prune_rate"), rate));
    }
    for phase in trace.summary() {
        case = case.with(format!("phase_{}_ns", phase.name), phase.total_ns);
    }
    case
}

/// The rising lower-bound schedule both planted-2k CTCP cases drive at
/// k = 2: the access pattern of a solver whose incumbent keeps improving.
const CTCP_SCHEDULE: [usize; 6] = [8, 10, 12, 14, 16, 18];

/// Bound on `incremental / scratch` wall over `CTCP_SCHEDULE` on
/// planted-2k: one `Ctcp` built and tightened step by step, against a
/// fresh `Ctcp` built and tightened at every step, the recompute a solve
/// makes when it holds no resident reducer. Measured at 0.20 to 0.21 in
/// three `--reps 3` checks on a 2-vCPU VM (warm 3.3 ms with its
/// construction, fresh about 16 ms), so a warm reducer that stops beating
/// a fresh one by 2x fails the gate.
const CTCP_WARM_MAX: f64 = 0.5;

/// One CTCP reducer tightened across `CTCP_SCHEDULE`, and a fresh reducer
/// built and tightened at each of its steps. Both must land on the same
/// survivors; the warm side is gated against the fresh side.
fn ctcp_schedule_suite(g: &Graph, reps: usize) -> Suite {
    let (mut vertex_removals, mut edge_removals) = (0u64, 0u64);
    let incremental_median = median_ns(reps, || {
        let mut ctcp = Ctcp::new(g, 2);
        (vertex_removals, edge_removals) = (0, 0);
        for &lb in &CTCP_SCHEDULE {
            let rem = ctcp.tighten(lb);
            vertex_removals += rem.vertices.len() as u64;
            edge_removals += rem.edges;
        }
    });
    let mut survivors = (0, 0);
    let scratch_median = median_ns(reps, || {
        for &lb in &CTCP_SCHEDULE {
            let mut fresh = Ctcp::new(g, 2);
            fresh.tighten(lb);
            survivors = (fresh.alive_n(), fresh.alive_m());
        }
    });
    let scratch_removals = ((g.n() - survivors.0) as u64, (g.m() - survivors.1) as u64);
    assert_eq!(
        scratch_removals,
        (vertex_removals, edge_removals),
        "planted-2k: the warm and the fresh reducer reach the same fixpoint"
    );
    let incremental = "ctcp/planted-2k-schedule".to_string();
    let scratch = "ctcp/planted-2k-scratch".to_string();
    let cases = vec![
        Case::new(incremental.clone(), incremental_median, reps)
            .with("vertex_removals", vertex_removals)
            .with("edge_removals", edge_removals),
        Case::new(scratch.clone(), scratch_median, reps)
            .with("vertex_removals", scratch_removals.0)
            .with("edge_removals", scratch_removals.1),
    ];
    let gates = vec![gate(
        Measure::Wall,
        incremental,
        scratch,
        CTCP_WARM_MAX,
        "the warm reducer beats recomputing the fixpoint at every step",
    )];
    (cases, gates)
}

fn solve_suite(reps: usize) -> Suite {
    let (mut cases, mut gates) = (Vec::new(), Vec::new());
    let mut instances = kdc_bench::collections::planted_snapshot_cases();
    let search_heavy = instances.len();
    instances.push(("planted-2k-k2", planted_2k(), 2));
    for (i, (name, g, k)) in instances.iter().enumerate() {
        let word = format!("solve/{name}/kdc");
        let scalar = format!("solve/{name}/kdc-scalar");
        let kdclub = format!("solve/{name}/kdclub");
        cases.push(solve_case(word.clone(), g, *k, &SolverConfig::kdc(), reps));
        let scalar_cfg = SolverConfig::kdc().with_scalar_kernel();
        cases.push(solve_case(scalar.clone(), g, *k, &scalar_cfg, reps));
        cases.push(solve_case(
            kdclub.clone(),
            g,
            *k,
            &SolverConfig::kdclub(),
            reps,
        ));
        if i < search_heavy {
            gates.push(gate(
                Measure::Nodes,
                kdclub,
                word.clone(),
                1.0,
                "the KD-Club bound must never grow the tree",
            ));
            gates.push(gate(
                Measure::Wall,
                word,
                scalar,
                0.75,
                "the word-parallel kernel must beat the scalar kernel",
            ));
        }
    }
    let rmat16 = gen::rmat(16, 8, &mut gen::seeded_rng(7));
    for (c, g) in [
        ctcp_schedule_suite(&instances[search_heavy].1, reps),
        peel_suite(&rmat16, reps),
        heuristic_suite(&rmat16, reps),
        ctcp_cold_suite(&rmat16, reps),
        read_graph_suite(&rmat16, reps),
    ] {
        cases.extend(c);
        gates.extend(g);
    }
    (cases, gates)
}

/// The tie-ordered `degeneracy::peel` against the O(n + m) `peel_bucket` on
/// one sparse R-MAT graph. Both allocate their buffers afresh each run.
fn peel_suite(g: &Graph, reps: usize) -> Suite {
    let (offsets, neighbors) = g.csr();
    let delta = degeneracy::peel(g).degeneracy;
    let tie_median = median_ns(reps, || {
        std::hint::black_box(degeneracy::peel(std::hint::black_box(g)));
    });
    let bucket_median = median_ns(reps, || {
        let mut scratch = BucketPeel::default();
        let d = degeneracy::peel_bucket(offsets, neighbors, &mut scratch);
        assert_eq!(d, delta, "rmat16: both peels agree on the degeneracy");
        std::hint::black_box(scratch);
    });
    let tie = "peel/rmat16/tie-ordered".to_string();
    let bucket = "peel/rmat16/bucket".to_string();
    let cases = vec![
        Case::new(tie.clone(), tie_median, reps).with("degeneracy", delta as u64),
        Case::new(bucket.clone(), bucket_median, reps).with("degeneracy", delta as u64),
    ];
    let gates = vec![gate(
        Measure::Wall,
        tie,
        bucket,
        3.0,
        "the tie-ordered peel stays within a constant factor of the O(n + m) peel",
    )];
    (cases, gates)
}

/// `Degen-opt` at k = 3 on the same R-MAT graph and its tie-ordered
/// peeling, gated against that peel. Its lower bound is asserted here
/// because `BENCH_9.json` has no row for this case.
fn heuristic_suite(g: &Graph, reps: usize) -> Suite {
    let peeling = degeneracy::peel(g);
    let lb = heuristic::degen_opt_with(g, 3, &peeling).len();
    assert_eq!(lb, RMAT16_K3_LB, "rmat16: Degen-opt's lower bound at k = 3");
    let median = median_ns(reps, || {
        std::hint::black_box(heuristic::degen_opt_with(
            std::hint::black_box(g),
            3,
            &peeling,
        ));
    });
    let name = "heuristic/rmat16-k3/degen-opt".to_string();
    let case = Case::new(name.clone(), median, reps).with("lb", lb as u64);
    let gates = vec![gate(
        Measure::Wall,
        name,
        "peel/rmat16/tie-ordered".to_string(),
        DEGEN_OPT_MAX,
        "Degen-opt builds egos only inside the core of Degen's lower bound",
    )];
    (vec![case], gates)
}

/// The cold reducer on the same R-MAT graph at k = 3: built from its
/// tie-ordered peeling, alone and then tightened once to `Degen-opt`'s
/// lower bound, each gated against the O(n + m) bucket peel. Its removal
/// counts are asserted here because `BENCH_9.json` has no row for these
/// cases.
fn ctcp_cold_suite(g: &Graph, reps: usize) -> Suite {
    let peeling = degeneracy::peel(g);
    let build = || Ctcp::with_peeling(g, 3, true, true, &peeling);
    let cold = || {
        let rem = build().tighten(RMAT16_K3_LB);
        (rem.vertices.len(), rem.edges)
    };
    let removals = cold();
    assert_eq!(
        removals, RMAT16_K3_REMOVALS,
        "rmat16: cold reducer removals at k = 3"
    );
    let build_median = median_ns(reps, || {
        std::hint::black_box(build());
    });
    let cold_median = median_ns(reps, || {
        std::hint::black_box(cold());
    });
    let build_name = "ctcp/rmat16-k3/build".to_string();
    let cold_name = "ctcp/rmat16-k3/cold".to_string();
    let cases = vec![
        Case::new(build_name.clone(), build_median, reps),
        Case::new(cold_name.clone(), cold_median, reps)
            .with("vertex_removals", removals.0 as u64)
            .with("edge_removals", removals.1),
    ];
    let gates = vec![
        gate(
            Measure::Wall,
            build_name,
            "peel/rmat16/bucket".to_string(),
            CTCP_BUILD_MAX,
            "the reducer indexes no edge before its support count",
        ),
        gate(
            Measure::Wall,
            cold_name,
            "peel/rmat16/bucket".to_string(),
            CTCP_COLD_MAX,
            "the cold reducer's tighten stays near-linear on rmat16",
        ),
    ];
    (cases, gates)
}

/// `io::read_graph` of the same R-MAT graph, written once as DIMACS: file
/// to CSR, gated against the O(n + m) bucket peel of that graph.
fn read_graph_suite(g: &Graph, reps: usize) -> Suite {
    let dir = std::env::temp_dir().join(format!("kdc_bench_io_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("rmat16.clq");
    kdc_graph::io::write_dimacs(g, &path).expect("write graph file");
    let back = kdc_graph::io::read_graph(&path).expect("read graph file");
    assert_eq!(&back, g, "rmat16: the DIMACS round trip is the identity");
    let median = median_ns(reps, || {
        std::hint::black_box(kdc_graph::io::read_graph(&path).expect("read graph file"));
    });
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    let name = "io/rmat16/read_graph".to_string();
    let case = Case::new(name.clone(), median, reps)
        .with("n", g.n() as u64)
        .with("m", g.m() as u64);
    let gates = vec![gate(
        Measure::Wall,
        name,
        "peel/rmat16/bucket".to_string(),
        READ_GRAPH_MAX,
        "parsing a file stays within a constant factor of one O(n + m) pass over its graph",
    )];
    (vec![case], gates)
}

fn batch_suite(reps: usize) -> Suite {
    let (name, g, _) = kdc_bench::collections::planted_snapshot_cases().remove(0);
    let subs: Vec<SubQuery> = K_SWEEP.map(SubQuery::solve).collect();
    let cold = |k: usize| Session::new(g.clone()).solve(k);
    let sweep = || {
        Session::new(g.clone())
            .run_batch(&subs, &Budget::default(), &Options::default())
            .expect("batch sweep")
    };

    let reference: Vec<Outcome> = K_SWEEP.map(cold).collect();
    let cold_nodes: u64 = reference.iter().map(|o| o.stats.nodes).sum();
    let cold_median = warm_median_ns(reps, || {
        let nodes: u64 = K_SWEEP.map(|k| cold(k).stats.nodes).sum();
        assert_eq!(
            nodes, cold_nodes,
            "{name}: cold node counts must be deterministic"
        );
    });

    let batch = sweep();
    for (k, (got, want)) in batch.outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(got.status, want.status, "{name} k={k}: status parity");
        assert_eq!(
            got.witnesses, want.witnesses,
            "{name} k={k}: batch answers must be byte-identical to cold solves"
        );
    }
    assert!(
        batch.batch_ctcp_shares >= 1 && batch.batch_witness_seeds >= 1,
        "{name}: the sweep must share a reducer pass and seed a lower bound"
    );
    let batch_nodes = batch.total_nodes();
    let batch_median = warm_median_ns(reps, || {
        let nodes = sweep().total_nodes();
        assert_eq!(
            nodes, batch_nodes,
            "{name}: batch node counts must be deterministic"
        );
    });

    let batch_name = format!("batch/{name}/sweep-k0-4");
    let cold_name = format!("cold/{name}/sweep-k0-4");
    let mut batch_case = Case::new(batch_name.clone(), batch_median, reps)
        .with("nodes", batch_nodes)
        .with("cold_nodes", cold_nodes)
        .with("ctcp_shares", batch.batch_ctcp_shares)
        .with("witness_seeds", batch.batch_witness_seeds)
        .with("memo_dedups", batch.batch_memo_dedups);
    let mut cold_case = Case::new(cold_name.clone(), cold_median, reps).with("nodes", cold_nodes);
    for (k, o) in reference.iter().enumerate() {
        let size = o.best().map_or(0, |w| w.len()) as u64;
        batch_case = batch_case.with(format!("size_k{k}"), size);
        cold_case = cold_case.with(format!("size_k{k}"), size);
    }
    let gates = vec![
        gate(
            Measure::Nodes,
            batch_name.clone(),
            cold_name.clone(),
            0.70,
            "the sweep must share work across k",
        ),
        gate(
            Measure::Wall,
            batch_name,
            cold_name,
            1.0,
            "the sweep must not be slower than its cold solves",
        ),
    ];
    (vec![batch_case, cold_case], gates)
}

/// One full warm restart: replay the state dir, rebuild a session from the
/// recovered state, and re-ask the query at `k`. Returns the outcome plus
/// how many witnesses/memos the import accepted.
fn warm_restart(state_dir: &Path, g: &Graph, k: usize) -> (Outcome, u64, u64) {
    let (_store, recovered) = Store::open(state_dir).expect("reopen state dir");
    let gs = recovered
        .iter()
        .find(|gs| gs.name == "bench")
        .expect("persisted graph state survived the restart");
    let session = Session::new(g.clone());
    let (witnesses, memos) = session.import_state(&import_graph_state(gs));
    (session.solve(k), witnesses, memos)
}

fn recovery_suite(reps: usize) -> Suite {
    const K: usize = 3;
    let (name, g, _) = kdc_bench::collections::planted_snapshot_cases().remove(0);
    let dir = std::env::temp_dir().join(format!("kdc_bench_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let state_dir = dir.join("state");
    let graph_path = dir.join("bench.clq");
    kdc_graph::io::write_dimacs(&g, &graph_path).expect("write graph file");
    let content_hash =
        kdc_store::content_hash(&std::fs::read(&graph_path).expect("reread graph file"));

    // Cold reference: a fresh session proves the query from nothing.
    let cold_session = Session::new(g.clone());
    let reference = cold_session.solve(K);
    assert!(
        reference.is_optimal(),
        "{name}: cold solve must prove k={K}"
    );
    let cold_nodes = reference.stats.nodes;
    let cold_median = warm_median_ns(reps, || {
        let again = Session::new(g.clone()).solve(K);
        assert_eq!(
            again.stats.nodes, cold_nodes,
            "{name}: cold node counts must be deterministic"
        );
    });

    // Persist the proven state the way the daemon would — one snapshot in
    // a real store — then restart from disk: replay, import, re-solve.
    let gs = export_graph_state(
        "bench",
        &graph_path.display().to_string(),
        content_hash,
        &cold_session.export_state(),
    );
    {
        let (store, _) = Store::open(&state_dir).expect("create state dir");
        store
            .compact(std::slice::from_ref(&gs))
            .expect("write snapshot");
    }

    let (first, witnesses, memos) = warm_restart(&state_dir, &g, K);
    assert!(
        witnesses >= 1 && memos >= 1,
        "{name}: restart must recover the persisted state (witnesses={witnesses} memos={memos})"
    );
    assert_eq!(first.status, reference.status, "{name}: status parity");
    assert_eq!(
        first.best(),
        reference.best(),
        "{name}: warm answer must be byte-identical to the cold solve"
    );
    // A memo hit replays the original proof's stats; the restarted search
    // itself explored nothing.
    let warm_reexplored = if first.cache.result_memo_hit {
        0
    } else {
        first.stats.nodes
    };
    let warm_median = warm_median_ns(reps, || {
        let (out, _, _) = warm_restart(&state_dir, &g, K);
        assert!(
            out.cache.result_memo_hit,
            "{name}: the recovered memo must answer the warm solve"
        );
    });
    // Best effort: a leftover scratch dir in the temp dir is harmless.
    let _ = std::fs::remove_dir_all(&dir);

    let size = reference.best().map_or(0, |w| w.len()) as u64;
    let warm_name = format!("warm/{name}/restart-solve-k{K}");
    let cold_name = format!("cold/{name}/solve-k{K}");
    let cases = vec![
        Case::new(warm_name.clone(), warm_median, reps)
            .with("nodes", warm_reexplored)
            .with("cold_nodes", cold_nodes)
            .with("recovered_witnesses", witnesses)
            .with("recovered_memos", memos)
            .with(format!("size_k{K}"), size),
        Case::new(cold_name.clone(), cold_median, reps)
            .with("nodes", cold_nodes)
            .with(format!("size_k{K}"), size),
    ];
    // No wall gate: opening the store rewrites and fsyncs the snapshot, so
    // the restart's wall time is disk latency, which does not scale with
    // the CPU-bound cold solve it would be divided by.
    let gates = vec![gate(
        Measure::Nodes,
        warm_name,
        cold_name,
        0.50,
        "a warm restart must not redo the cold search",
    )];
    (cases, gates)
}

/// Measures the observability layer's wall-clock cost: the planted-200
/// solve with `kdc_obs` enabled (bound timing on, the default) vs
/// disabled. Returns `(enabled_ns, disabled_ns)` medians; the global
/// switch is restored to enabled afterwards.
fn measure_obs_overhead(reps: usize) -> (u128, u128) {
    let (_, g, k) = kdc_bench::collections::planted_snapshot_cases().remove(0);
    let time = |obs: bool| {
        kdc_obs::set_enabled(obs);
        let t = std::time::Instant::now();
        let sol = Solver::new(&g, k, SolverConfig::kdc()).solve();
        let ns = t.elapsed().as_nanos();
        assert!(sol.is_optimal(), "planted-200 must solve to optimality");
        ns
    };
    // Interleave the two variants rep by rep so slow machine-level drift
    // (thermal throttling, background load) hits both sides equally
    // instead of biasing whichever block ran second. The solve suite has
    // already run this solve, so no warm-up is needed.
    let mut enabled = Vec::with_capacity(reps);
    let mut disabled = Vec::with_capacity(reps);
    for _ in 0..reps {
        enabled.push(time(true));
        disabled.push(time(false));
    }
    kdc_obs::set_enabled(true);
    enabled.sort_unstable();
    disabled.sort_unstable();
    (enabled[reps / 2], disabled[reps / 2])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = DEFAULT_PATH.to_string();
    let mut check_mode = false;
    let mut reps = 5usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a path").clone();
            }
            "--check" => {
                check_mode = true;
                if let Some(path) = args.get(i + 1).filter(|p| !p.starts_with("--")) {
                    i += 1;
                    out = path.clone();
                }
            }
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|r| r.parse().ok())
                    .filter(|&r| r > 0)
                    .expect("--reps needs a positive integer");
            }
            other => panic!("unknown argument {other:?} (see --out/--check/--reps)"),
        }
        i += 1;
    }

    let (mut cases, mut gates) = solve_suite(reps);
    for (c, g) in [batch_suite(reps), recovery_suite(reps)] {
        cases.extend(c);
        gates.extend(g);
    }
    let committed = check_mode.then(|| {
        std::fs::read_to_string(&out).unwrap_or_else(|e| panic!("cannot read baseline {out}: {e}"))
    });
    let verdict = baseline::check(committed.as_deref(), &gates, &cases);
    for note in &verdict.notes {
        println!("{note}");
    }
    if !verdict.failures.is_empty() {
        eprintln!("bench check FAILED:\n{}", verdict.failures.join("\n"));
        std::process::exit(1);
    }
    if check_mode {
        println!(
            "bench check passed ({} cases, {} gates)",
            cases.len(),
            gates.len()
        );
        return;
    }
    let (enabled, disabled) = measure_obs_overhead(reps);
    let pct = (enabled as f64 / disabled.max(1) as f64 - 1.0) * 100.0;
    let overhead = format!(
        "\"obs_overhead\": {{\"case\": \"planted-200-k3/kdc\", \"enabled_median_ns\": {enabled}, \
         \"disabled_median_ns\": {disabled}, \"overhead_pct\": {pct:.2}}}"
    );
    let text = baseline::render("BENCH_9", &[overhead], &cases, &gates);
    std::fs::write(&out, &text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    print!("{text}");
    println!(
        "observability overhead on planted-200-k3: {pct:+.2}% \
         (enabled {enabled} ns vs disabled {disabled} ns, target <= 2%)"
    );
    println!("wrote {out} ({} cases, {} gates)", cases.len(), gates.len());
}
