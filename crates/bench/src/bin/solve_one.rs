//! Solve a single instance with any preset and print detailed statistics.
//! Debugging/profiling companion for the table binaries.
//!
//! Usage:
//!
//! ```text
//! solve_one gnp:<n>:<p> <k> [preset] [limit_secs]
//! solve_one community:<c>:<s>:<pin>:<pout> <k> [preset]
//! solve_one <path/to/graph-file> <k> [preset]
//! ```
//!
//! Presets: every public name (kdc (default), kdc_t, kdclub, kdbb, madec)
//! plus the ablations no_ub1, no_rr34, no_ub1_rr34 and degen.

use kdc::config::parse_time_limit_arg;
use kdc::SolverConfig;
use kdc_api::{Budget, Options, Query, Session};
use kdc_graph::{gen, io, Graph};
use std::time::Instant;

/// A public preset name (see [`SolverConfig::from_preset`]) or one of the
/// §4.2 ablations, which have no public name.
fn preset(name: &str) -> SolverConfig {
    SolverConfig::from_preset(name).unwrap_or_else(|err| match name {
        "no_ub1" => SolverConfig::without_ub1(),
        "no_rr34" => SolverConfig::without_rr3_rr4(),
        "no_ub1_rr34" => SolverConfig::without_ub1_rr3_rr4(),
        "degen" => SolverConfig::degen(),
        _ => fail(&err),
    })
}

/// Reports a bad argument and exits with status 2.
fn fail(msg: &str) -> ! {
    eprintln!("solve_one: {msg}");
    std::process::exit(2)
}

fn load(spec: &str) -> Graph {
    if let Some(rest) = spec.strip_prefix("gnp:") {
        let parts: Vec<&str> = rest.split(':').collect();
        let n: usize = parts[0].parse().expect("n");
        let p: f64 = parts[1].parse().expect("p");
        return gen::gnp(n, p, &mut gen::seeded_rng(0xDEB));
    }
    if let Some(rest) = spec.strip_prefix("community:") {
        let parts: Vec<&str> = rest.split(':').collect();
        return gen::community(
            &gen::CommunityParams {
                communities: parts[0].parse().expect("c"),
                community_size: parts[1].parse().expect("s"),
                p_in: parts[2].parse().expect("pin"),
                p_out: parts[3].parse().expect("pout"),
            },
            &mut gen::seeded_rng(0xDEB),
        );
    }
    io::read_graph(std::path::Path::new(spec)).expect("readable graph file")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let spec = args.get(1).expect("graph spec");
    let k: usize = args.get(2).expect("k").parse().expect("k");
    let preset_name = args.get(3).map(String::as_str).unwrap_or("kdc");
    let cfg = preset(preset_name);
    let limit = args
        .get(4)
        .map(|a| parse_time_limit_arg(a).unwrap_or_else(|err| fail(&err)));

    let g = load(spec);
    println!(
        "graph: n = {}, m = {}, density = {:.4}",
        g.n(),
        g.m(),
        g.density()
    );

    // The measured path is the served path: drive the same kdc_api Session
    // the CLI and the daemon use. Ablation presets beyond the public name
    // table ride in as explicit (non-memoized) configurations.
    let session = Session::new(g);
    let budget = Budget {
        time_limit: limit,
        ..Budget::default()
    };
    let t0 = Instant::now();
    let sol = session
        .run(&Query::Solve { k }, &budget, &Options::custom(cfg))
        .expect("session solve");
    let elapsed = t0.elapsed();

    println!("preset {preset_name}, k = {k}");
    println!(
        "size = {}, status = {:?}, time = {:.4}s",
        sol.size(),
        sol.status,
        elapsed.as_secs_f64()
    );
    let s = &sol.stats;
    println!(
        "initial = {}, reduced n0 = {}, m0 = {}",
        s.initial_solution_size, s.preprocessed_n, s.preprocessed_m
    );
    println!(
        "nodes = {}, leaves = {}, depth = {}, bound prunes = {} (ub1-only {})",
        s.nodes, s.leaves, s.max_depth, s.bound_prunes, s.ub1_prunes
    );
    println!(
        "rr1 = {}, rr2 = {}, rr3 = {}, rr4 = {}, rr5 = {}, S-prunes = {}",
        s.rr1_removals,
        s.rr2_additions,
        s.rr3_removals,
        s.rr4_removals,
        s.rr5_removals,
        s.s_vertex_prunes
    );
}
