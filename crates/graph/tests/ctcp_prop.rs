//! Property tests for the incremental CTCP reducer: against random and
//! planted instances, an incrementally tightened [`Ctcp`] must land on
//! exactly the fixpoint the from-scratch `k_truss` + `k_core`
//! iteration computes — same surviving vertices, same surviving edges —
//! for every k and every point of a rising lower-bound schedule.
//!
//! The hub-heavy Chung–Lu cases pin down the core-first path: a bulk
//! core-number pass before any support exists, then one support count over
//! the survivors, under every rule toggle and every schedule shape.
//!
//! A reducer whose core order comes from the caller's tie-ordered peeling
//! ([`Ctcp::with_peeling`]) must match the bucket-peeled one
//! ([`Ctcp::with_rules`]) step for step.
//!
//! The core phase indexes no edge: it deletes a prefix of the peel order
//! and learns the shell's edge count either from its rows or from the
//! index it builds at the count. Every step's removals must say exactly
//! what left, in peel order while no support exists.

use kdc_graph::ctcp::{scratch_fixpoint, scratch_fixpoint_rules, Ctcp};
use kdc_graph::degeneracy::{self, BucketPeel};
use kdc_graph::{gen, Graph, VertexId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Every `(core_rule, truss_rule)` toggle.
const RULES: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

/// A hub-heavy Chung–Lu graph: `beta` just above 2 gives a few vertices of
/// degree far above the average.
fn hub_graph(seed: u64, n: usize, avg_deg: usize, beta_tenths: usize) -> Graph {
    let mut rng = gen::seeded_rng(seed);
    gen::chung_lu(n, avg_deg as f64, beta_tenths as f64 / 10.0, &mut rng)
}

/// The reducer equals the from-scratch fixpoint at `lb`, edges included,
/// and its removal counters account for every input vertex and edge.
fn assert_at_fixpoint(
    c: &Ctcp,
    g: &Graph,
    lb: usize,
    (core_rule, truss_rule): (bool, bool),
) -> Result<(), TestCaseError> {
    let (expected, expected_keep) = scratch_fixpoint_rules(g, c.k(), lb, core_rule, truss_rule);
    prop_assert_eq!(c.lb(), lb);
    prop_assert_eq!(
        c.alive_vertices(),
        expected_keep,
        "lb {} rules {:?}",
        lb,
        c.rules()
    );
    prop_assert_eq!(
        c.extract_universe().0,
        expected,
        "lb {} rules {:?}",
        lb,
        c.rules()
    );
    let (v_removed, e_removed) = c.removal_counters();
    prop_assert_eq!(
        (
            v_removed as usize + c.alive_n(),
            e_removed as usize + c.alive_m()
        ),
        (g.n(), g.m())
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tighten_matches_scratch_fixpoint_on_gnp(
        seed in 0u64..10_000,
        n in 12usize..40,
        p_percent in 10usize..45,
        k in 0usize..4,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::gnp(n, p_percent as f64 / 100.0, &mut rng);
        let mut warm = Ctcp::new(&g, k);
        // A rising schedule, re-checking the invariant at every step: the
        // incremental state must agree with a from-scratch fixpoint at the
        // same bound, edges included.
        for lb in [k + 1, k + 2, k + 4, k + 6] {
            warm.tighten(lb);
            let (expected, expected_keep) = scratch_fixpoint(&g, k, lb);
            prop_assert_eq!(warm.alive_vertices(), expected_keep, "lb {}", lb);
            let (universe, _) = warm.extract_universe();
            prop_assert_eq!(universe, expected, "lb {}", lb);
        }
    }

    #[test]
    fn tighten_matches_scratch_fixpoint_on_planted(
        seed in 0u64..10_000,
        k in 0usize..3,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let (g, planted) = gen::planted_defective_clique(120, 10, k, 0.05, &mut rng);
        let mut warm = Ctcp::new(&g, k);
        for lb in [4usize, 7, 9] {
            warm.tighten(lb);
            let (expected, expected_keep) = scratch_fixpoint(&g, k, lb);
            prop_assert_eq!(warm.alive_vertices(), expected_keep, "lb {}", lb);
            let (universe, _) = warm.extract_universe();
            prop_assert_eq!(universe, expected, "lb {}", lb);
            // Soundness: the planted solution (size 10 > lb would require
            // lb < 10) survives any tighten at lb < 10.
            if lb < planted.len() {
                for &v in &planted {
                    prop_assert!(warm.is_alive(v), "planted vertex {} removed", v);
                }
            }
        }
    }

    #[test]
    fn tighten_at_schedule_max_is_equivalent_to_the_sequential_schedule(
        seed in 0u64..10_000,
        n in 12usize..40,
        k in 0usize..3,
        a in 0usize..10,
        b in 0usize..10,
        c in 0usize..10,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::gnp(n, 0.3, &mut rng);
        let schedule = [a, b, c];
        let mut sequential = Ctcp::new(&g, k);
        let mut removed_edges = 0u64;
        let mut removed_vertices = Vec::new();
        for &lb in &schedule {
            let rem = sequential.tighten(lb);
            removed_edges += rem.edges;
            removed_vertices.extend(rem.vertices);
        }
        let mut batched = Ctcp::new(&g, k);
        let rem = batched.tighten(a.max(b).max(c));
        prop_assert_eq!(batched.lb(), sequential.lb());
        prop_assert_eq!(batched.alive_vertices(), sequential.alive_vertices());
        prop_assert_eq!(rem.edges, removed_edges);
        let mut batch_v = rem.vertices;
        batch_v.sort_unstable();
        removed_vertices.sort_unstable();
        prop_assert_eq!(batch_v, removed_vertices);
        let (universe_batch, _) = batched.extract_universe();
        let (universe_seq, _) = sequential.extract_universe();
        prop_assert_eq!(universe_batch, universe_seq);
    }

    #[test]
    fn removal_counters_are_conserved(
        seed in 0u64..10_000,
        n in 10usize..35,
        k in 0usize..3,
        lb in 0usize..12,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::gnp(n, 0.3, &mut rng);
        let mut c = Ctcp::new(&g, k);
        let rem = c.tighten(lb);
        let (v_removed, e_removed) = c.removal_counters();
        prop_assert_eq!(v_removed as usize, rem.vertices.len());
        prop_assert_eq!(e_removed, rem.edges);
        prop_assert_eq!(c.alive_n() + v_removed as usize, g.n());
        prop_assert_eq!(c.alive_m() + e_removed as usize, g.m());
    }

    #[test]
    fn core_first_matches_scratch_fixpoint_on_hub_graphs(
        seed in 0u64..10_000,
        n in 60usize..400,
        avg_deg in 4usize..14,
        beta_tenths in 21usize..28,
        k in 0usize..4,
        first in 0usize..5,
        steps in proptest::collection::vec(0usize..16, 1..4),
    ) {
        let g = hub_graph(seed, n, avg_deg, beta_tenths);
        // The first bound is at most k + 1, so no truss threshold is active
        // yet and supports are counted by a later step; the later steps
        // come in any order and are clamped to the running maximum.
        let schedule: Vec<usize> = std::iter::once(first.min(k + 1)).chain(steps).collect();
        for rules in RULES {
            let mut c = Ctcp::with_rules(&g, k, rules.0, rules.1);
            let mut lb = 0;
            for &step in &schedule {
                c.tighten(step);
                lb = lb.max(step);
                assert_at_fixpoint(&c, &g, lb, rules)?;
            }
        }
    }

    #[test]
    fn core_first_batches_match_scratch_fixpoint_on_hub_graphs(
        seed in 0u64..10_000,
        n in 60usize..400,
        avg_deg in 4usize..14,
        k in 0usize..4,
        first in 0usize..5,
        batches in proptest::collection::vec(proptest::collection::vec(0usize..16, 0..4), 1..4),
    ) {
        let g = hub_graph(seed, n, avg_deg, 22);
        for rules in RULES {
            let mut c = Ctcp::with_rules(&g, k, rules.0, rules.1);
            c.tighten(first.min(k + 1));
            let mut lb = first.min(k + 1);
            assert_at_fixpoint(&c, &g, lb, rules)?;
            // Unsorted batches with duplicates, possibly empty, possibly
            // entirely below the bound already applied: one tighten at the
            // batch maximum each.
            for batch in &batches {
                if let Some(&max) = batch.iter().max() {
                    c.tighten(max);
                }
                lb = batch.iter().copied().fold(lb, usize::max);
                assert_at_fixpoint(&c, &g, lb, rules)?;
            }
        }
    }

    #[test]
    fn peeling_fed_reducer_matches_bucket_peeled_reducer(
        seed in 0u64..10_000,
        n in 30usize..400,
        avg_deg in 3usize..14,
        beta_tenths in 21usize..30,
        k in 0usize..4,
        schedule in proptest::collection::vec(0usize..18, 1..6),
    ) {
        let g = hub_graph(seed, n, avg_deg, beta_tenths);
        let peeling = degeneracy::peel(&g);
        for rules in RULES {
            let mut fed = Ctcp::with_peeling(&g, k, rules.0, rules.1, &peeling);
            let mut own = Ctcp::with_rules(&g, k, rules.0, rules.1);
            for &lb in &schedule {
                let (a, b) = (fed.tighten(lb), own.tighten(lb));
                prop_assert_eq!(a.edges, b.edges, "lb {} rules {:?}", lb, rules);
                // The core phase walks each peel's own tie order.
                let (mut va, mut vb) = (a.vertices, b.vertices);
                va.sort_unstable();
                vb.sort_unstable();
                prop_assert_eq!(va, vb, "lb {} rules {:?}", lb, rules);
                prop_assert_eq!(fed.alive_vertices(), own.alive_vertices());
                prop_assert_eq!(fed.removal_counters(), own.removal_counters());
                prop_assert_eq!((fed.alive_n(), fed.alive_m()), (own.alive_n(), own.alive_m()));
                prop_assert_eq!(fed.extract_universe(), own.extract_universe());
            }
        }
    }
    #[test]
    fn core_phase_removals_follow_the_peel_order_on_hub_graphs(
        seed in 0u64..10_000,
        n in 60usize..400,
        avg_deg in 4usize..14,
        beta_tenths in 21usize..28,
        k in 0usize..4,
        core_steps in proptest::collection::vec(0usize..5, 2..5),
        steps in proptest::collection::vec(0usize..18, 1..4),
    ) {
        let g = hub_graph(seed, n, avg_deg, beta_tenths);
        // Bounds of at most k + 1 leave the truss threshold at 0, so the
        // first tightens stay in the core phase; the later steps come in
        // any order and count supports once one of them raises it.
        let schedule: Vec<usize> = core_steps
            .iter()
            .map(|&s| s.min(k + 1))
            .chain(steps)
            .collect();
        let tie = degeneracy::peel(&g);
        let tie_order: Vec<(usize, VertexId)> =
            tie.order.iter().map(|&v| (tie.core[v as usize], v)).collect();
        let (offsets, neighbors) = g.csr();
        let mut bucket = BucketPeel::default();
        degeneracy::peel_bucket(offsets, neighbors, &mut bucket);
        let core = bucket.core_numbers();
        let bucket_order: Vec<(usize, VertexId)> =
            bucket.order().iter().map(|&v| (core[v as usize], v)).collect();
        for rules in RULES {
            for (fed, order) in [(true, &tie_order), (false, &bucket_order)] {
                let mut c = if fed {
                    Ctcp::with_peeling(&g, k, rules.0, rules.1, &tie)
                } else {
                    Ctcp::with_rules(&g, k, rules.0, rules.1)
                };
                let (mut lb, mut totals) = (0usize, (0u64, 0u64));
                let mut alive: Vec<VertexId> = g.vertices().collect();
                let mut m = g.m();
                for &step in &schedule {
                    let rem = c.tighten(step);
                    let counted_before = rules.1 && lb > k + 1;
                    let before = lb;
                    lb = lb.max(step);
                    let at = format!("lb {lb} rules {rules:?} fed {fed}");
                    // Until supports exist the step deletes the next peel
                    // order vertices of core number below lb − k first.
                    if rules.0 && !counted_before {
                        let below =
                            |t: usize| order.iter().take_while(|&&(c, _)| c < t.saturating_sub(k)).count();
                        let shell: Vec<VertexId> =
                            order[below(before)..below(lb)].iter().map(|&(_, v)| v).collect();
                        prop_assert_eq!(rem.vertices.get(..shell.len()), Some(&shell[..]), "{}", at);
                    }
                    let (expected, expected_keep) =
                        scratch_fixpoint_rules(&g, k, lb, rules.0, rules.1);
                    let mut removed = rem.vertices.clone();
                    removed.sort_unstable();
                    let gone: Vec<VertexId> = alive
                        .iter()
                        .copied()
                        .filter(|v| expected_keep.binary_search(v).is_err())
                        .collect();
                    prop_assert_eq!(removed, gone, "{}", at);
                    prop_assert_eq!(rem.edges as usize, m - expected.m(), "{}", at);
                    prop_assert_eq!(c.alive_vertices(), expected_keep.clone(), "{}", at);
                    let (universe, _) = c.extract_universe();
                    prop_assert_eq!(c.alive_m(), universe.m(), "{}", at);
                    prop_assert_eq!(&universe, &expected, "{}", at);
                    totals.0 += rem.vertices.len() as u64;
                    totals.1 += rem.edges;
                    prop_assert_eq!(c.removal_counters(), totals, "{}", at);
                    prop_assert_eq!(c.alive_n() + totals.0 as usize, g.n(), "{}", at);
                    prop_assert_eq!(c.alive_m() + totals.1 as usize, g.m(), "{}", at);
                    alive = expected_keep;
                    m = expected.m();
                }
            }
        }
    }
}
