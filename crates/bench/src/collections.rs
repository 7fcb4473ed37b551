//! Synthetic benchmark collections standing in for the paper's three graph
//! collections (see DESIGN.md §3 for the substitution rationale).
//!
//! * [`real_world_like`] — sparse power-law / Erdős–Rényi mixes covering the
//!   size/density/degeneracy spread of the "real-world graphs" collection;
//! * [`facebook_like`] — planted-community graphs mimicking Facebook social
//!   networks (large near-cliques inside dense blocks);
//! * [`dimacs_like`] — small dense instances in the DIMACS10&SNAP regime,
//!   where search trees get deep.
//!
//! All instances are generated from fixed seeds, so every harness run sees
//! the identical inputs.

use kdc_graph::gen::{self, CommunityParams};
use kdc_graph::Graph;

/// One benchmark instance.
pub struct Instance {
    /// Stable, human-readable name (encodes the generator parameters).
    pub name: String,
    /// The graph itself.
    pub graph: Graph,
}

/// A named list of instances.
pub struct Collection {
    /// Collection name as used in tables ("real-world", "facebook",
    /// "dimacs10&snap").
    pub name: &'static str,
    /// The instances, in a fixed order.
    pub instances: Vec<Instance>,
}

/// Harness size: `Quick` for smoke runs and tests, `Full` for the numbers
/// reported in EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A handful of small instances per collection.
    Quick,
    /// The full synthetic collections.
    Full,
}

impl Scale {
    /// Parses `--quick` style flags.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// The search-heavy planted cases of the `bench` baseline (`BENCH_5.json`
/// onward): `(name, graph, k)` triples whose noise is tuned so
/// preprocessing leaves a real branch-and-bound search. The single source
/// of these generator parameters — the `bench` binary and `perfbench`'s
/// `dense-search` workload must measure identical instances, or the
/// committed baseline stops describing them.
pub fn planted_snapshot_cases() -> Vec<(&'static str, Graph, usize)> {
    let (g200, _) = gen::planted_defective_clique(200, 14, 3, 0.30, &mut gen::seeded_rng(13));
    let (g220, _) = gen::planted_defective_clique(220, 14, 3, 0.28, &mut gen::seeded_rng(17));
    vec![("planted-200-k3", g200, 3), ("planted-220-k3", g220, 3)]
}

/// The real-world-like collection: sparse graphs with skewed degrees.
pub fn real_world_like(scale: Scale) -> Collection {
    let mut instances = Vec::new();
    let mut seed = 0xC0FFEE_u64;
    let mut push = |name: String, graph: Graph| instances.push(Instance { name, graph });

    // Power-law graphs across sizes and densities.
    let chung_lu_params: &[(usize, f64, f64)] = match scale {
        Scale::Quick => &[(300, 8.0, 2.5), (800, 10.0, 2.3), (2_000, 6.0, 2.7)],
        Scale::Full => &[
            (300, 8.0, 2.5),
            (600, 12.0, 2.4),
            (1_000, 10.0, 2.3),
            (2_000, 6.0, 2.7),
            (4_000, 8.0, 2.5),
            (8_000, 10.0, 2.4),
            (16_000, 8.0, 2.6),
            (30_000, 6.0, 2.5),
        ],
    };
    for &(n, d, beta) in chung_lu_params {
        seed += 1;
        let g = gen::chung_lu(n, d, beta, &mut gen::seeded_rng(seed));
        push(format!("cl-n{n}-d{d:.0}-b{beta:.1}"), g);
    }

    // Sparse ER graphs.
    let gnp_params: &[(usize, f64)] = match scale {
        Scale::Quick => &[(200, 0.05), (500, 0.02)],
        Scale::Full => &[
            (200, 0.05),
            (400, 0.04),
            (500, 0.02),
            (1_000, 0.012),
            (2_000, 0.006),
            (4_000, 0.004),
            (8_000, 0.002),
        ],
    };
    for &(n, p) in gnp_params {
        seed += 1;
        let g = gen::gnp(n, p, &mut gen::seeded_rng(seed));
        push(format!("gnp-n{n}-p{p}"), g);
    }

    // Preferential-attachment graphs (hubs, low degeneracy).
    let ba_params: &[(usize, usize)] = match scale {
        Scale::Quick => &[(500, 4)],
        Scale::Full => &[(500, 4), (2_000, 5), (8_000, 6), (20_000, 4)],
    };
    for &(n, m) in ba_params {
        seed += 1;
        let g = gen::barabasi_albert(n, m, &mut gen::seeded_rng(seed));
        push(format!("ba-n{n}-m{m}"), g);
    }

    // Planted near-cliques in sparse noise (link-prediction workload).
    let planted: &[(usize, usize, usize, f64)] = match scale {
        Scale::Quick => &[(600, 18, 4, 0.01)],
        Scale::Full => &[
            (600, 18, 4, 0.01),
            (1_500, 22, 6, 0.008),
            (5_000, 26, 8, 0.003),
            (12_000, 30, 10, 0.001),
        ],
    };
    for &(n, size, miss, p) in planted {
        seed += 1;
        let (g, _) = gen::planted_defective_clique(n, size, miss, p, &mut gen::seeded_rng(seed));
        push(format!("planted-n{n}-s{size}-x{miss}"), g);
    }

    Collection {
        name: "real-world",
        instances,
    }
}

/// The facebook-like collection: community-structured social graphs.
pub fn facebook_like(scale: Scale) -> Collection {
    let mut instances = Vec::new();
    let mut seed = 0xFACE_u64;

    let params: &[(usize, usize, f64, f64)] = match scale {
        Scale::Quick => &[(6, 40, 0.55, 0.01), (10, 50, 0.5, 0.008)],
        Scale::Full => &[
            (4, 40, 0.6, 0.02),
            (6, 40, 0.55, 0.015),
            (8, 45, 0.55, 0.012),
            (10, 50, 0.5, 0.01),
            (12, 50, 0.5, 0.01),
            (10, 80, 0.45, 0.008),
            (16, 60, 0.45, 0.006),
            (20, 60, 0.42, 0.005),
            (16, 100, 0.4, 0.004),
            (24, 80, 0.4, 0.004),
            (20, 120, 0.38, 0.003),
            (32, 90, 0.38, 0.003),
            (24, 140, 0.35, 0.002),
            (40, 100, 0.35, 0.002),
        ],
    };
    for &(c, s, p_in, p_out) in params {
        seed += 1;
        // Heterogeneous blocks: community sizes and densities vary, so one
        // community hosts the clearly-largest near-clique (as in real social
        // networks, where preprocessing then prunes the remainder).
        let (g, _) = gen::community_heterogeneous(
            &CommunityParams {
                communities: c,
                community_size: s,
                p_in,
                p_out,
            },
            &mut gen::seeded_rng(seed),
        );
        instances.push(Instance {
            name: format!("fb-c{c}-s{s}-pi{p_in}-po{p_out}"),
            graph: g,
        });
    }

    Collection {
        name: "facebook",
        instances,
    }
}

/// The DIMACS10&SNAP-like collection. DIMACS10 instances are *sparse
/// structured* graphs (meshes, road networks, clustering instances) and the
/// SNAP slice adds social/web graphs, so this collection mixes triangulated
/// grids, random geometric graphs, sparse power-law graphs, and a few
/// moderately dense G(n, p) as the search-heavy tail.
pub fn dimacs_like(scale: Scale) -> Collection {
    let mut instances = Vec::new();
    let mut seed = 0xD13AC5_u64;
    let mut push = |name: String, graph: Graph| instances.push(Instance { name, graph });

    // Triangulated meshes (clustering instances).
    let grids: &[(usize, usize)] = match scale {
        Scale::Quick => &[(20, 25)],
        Scale::Full => &[(20, 25), (40, 50), (80, 100)],
    };
    for &(r, c) in grids {
        push(format!("mesh-{r}x{c}"), gen::grid(r, c, true));
    }

    // Road-network-like geometric graphs.
    let geo: &[(usize, f64)] = match scale {
        Scale::Quick => &[(800, 0.05)],
        Scale::Full => &[(800, 0.05), (3_000, 0.025), (10_000, 0.013)],
    };
    for &(n, r) in geo {
        seed += 1;
        push(
            format!("geo-n{n}-r{r}"),
            gen::random_geometric(n, r, &mut gen::seeded_rng(seed)),
        );
    }

    // SNAP-style power-law graphs.
    let cl: &[(usize, f64, f64)] = match scale {
        Scale::Quick => &[(2_000, 12.0, 2.3)],
        Scale::Full => &[(2_000, 12.0, 2.3), (6_000, 16.0, 2.2), (20_000, 10.0, 2.4)],
    };
    for &(n, d, b) in cl {
        seed += 1;
        push(
            format!("snap-cl-n{n}-d{d:.0}"),
            gen::chung_lu(n, d, b, &mut gen::seeded_rng(seed)),
        );
    }

    // Search-heavy dense tail.
    let gnp_params: &[(usize, f64)] = match scale {
        Scale::Quick => &[(60, 0.4)],
        Scale::Full => &[(60, 0.4), (90, 0.3), (120, 0.25)],
    };
    for &(n, p) in gnp_params {
        seed += 1;
        push(
            format!("dense-gnp-n{n}-p{p}"),
            gen::gnp(n, p, &mut gen::seeded_rng(seed)),
        );
    }

    Collection {
        name: "dimacs10&snap",
        instances,
    }
}

/// All three collections at the given scale.
pub fn all_collections(scale: Scale) -> Vec<Collection> {
    vec![
        real_world_like(scale),
        facebook_like(scale),
        dimacs_like(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_collections_are_nonempty_and_deterministic() {
        for f in [real_world_like, facebook_like, dimacs_like] {
            let a = f(Scale::Quick);
            let b = f(Scale::Quick);
            assert!(!a.instances.is_empty());
            assert_eq!(a.instances.len(), b.instances.len());
            for (x, y) in a.instances.iter().zip(&b.instances) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.graph, y.graph);
            }
        }
    }

    #[test]
    fn full_collections_have_stated_sizes() {
        assert_eq!(real_world_like(Scale::Full).instances.len(), 23);
        assert_eq!(facebook_like(Scale::Full).instances.len(), 14);
        assert_eq!(dimacs_like(Scale::Full).instances.len(), 12);
    }

    #[test]
    fn instance_names_are_unique() {
        for col in all_collections(Scale::Full) {
            let mut names: Vec<&str> = col.instances.iter().map(|i| i.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), col.instances.len(), "{}", col.name);
        }
    }
}
