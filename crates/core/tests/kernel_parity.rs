//! Release-mode parity suite for the word-parallel engine kernel and the
//! KD-Club colouring bound.
//!
//! * **Word vs scalar kernel**: the masked-word hot path over the dense
//!   bit-matrix must be *bit-identical* to the per-vertex probe path over
//!   the sorted lists — same witness, same status and the same number of
//!   explored branch-and-bound nodes (the representation changes how state
//!   is maintained, never which tree is walked) — across `k ∈ {0..3}` and
//!   every branch policy.
//! * **KD-Club vs legacy bound**: enabling the re-colouring bound must keep
//!   the optimum and, under a fixed branch policy, the exact witness (it
//!   only prunes subtrees that contain no improving solution), while never
//!   exploring more nodes than the legacy-bound run.
//!
//! CI runs this file in release mode so the optimized kernels are the ones
//! exercised.

use kdc::{BranchPolicy, Solver, SolverConfig};
use kdc_graph::gen;
use proptest::prelude::*;

const POLICIES: [BranchPolicy; 2] = [BranchPolicy::MaxNonNeighbors, BranchPolicy::MaxDegreeAny];

/// Every named preset must answer identical optimum sizes and statuses on
/// both kernels, for k ∈ {0..3} — the preset-level face of the parity
/// contract (the property tests below then pin witnesses and node counts).
#[test]
fn every_preset_agrees_across_kernels_and_k() {
    let mut rng = gen::seeded_rng(20_260_727);
    for trial in 0..4 {
        let g = gen::gnp(24 + 2 * trial, 0.4, &mut rng);
        for preset in ["kdc", "kdc_t", "kdclub", "kdbb", "madec"] {
            for k in 0usize..4 {
                let word_cfg = SolverConfig::from_preset(preset).unwrap();
                let scalar_cfg = word_cfg.clone().with_scalar_kernel();
                let word = Solver::new(&g, k, word_cfg).solve();
                let scalar = Solver::new(&g, k, scalar_cfg).solve();
                assert_eq!(word.size(), scalar.size(), "{preset} k={k} trial {trial}");
                assert_eq!(word.status, scalar.status, "{preset} k={k} trial {trial}");
                assert_eq!(
                    word.vertices, scalar.vertices,
                    "{preset} k={k} trial {trial}: witnesses"
                );
                assert_eq!(
                    word.stats.nodes, scalar.stats.nodes,
                    "{preset} k={k} trial {trial}: trees"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn word_kernel_is_bit_identical_to_scalar(
        seed in 0u64..10_000,
        n in 16usize..34,
        p_percent in 25usize..55,
        k in 0usize..4,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::gnp(n, p_percent as f64 / 100.0, &mut rng);
        for policy in POLICIES {
            let mut word_cfg = SolverConfig::kdc();
            word_cfg.branch_policy = policy;
            let scalar_cfg = word_cfg.clone().with_scalar_kernel();
            let word = Solver::new(&g, k, word_cfg).solve();
            let scalar = Solver::new(&g, k, scalar_cfg).solve();
            prop_assert_eq!(
                &word.vertices, &scalar.vertices,
                "witness parity ({:?}, k={})", policy, k
            );
            prop_assert_eq!(word.status, scalar.status);
            prop_assert_eq!(
                word.stats.nodes, scalar.stats.nodes,
                "tree parity ({:?}, k={})", policy, k
            );
            prop_assert!(g.is_k_defective_clique(&word.vertices, k));
        }
    }

    #[test]
    fn theory_preset_word_kernel_matches_scalar(
        seed in 0u64..10_000,
        k in 0usize..4,
    ) {
        // kDC-t has no bounds and no lb reductions, so its (much larger)
        // trees stress the raw add/remove/undo sweeps hardest.
        let mut rng = gen::seeded_rng(seed);
        let g = gen::gnp(20, 0.5, &mut rng);
        let word_cfg = SolverConfig::kdc_t();
        let scalar_cfg = word_cfg.clone().with_scalar_kernel();
        let word = Solver::new(&g, k, word_cfg).solve();
        let scalar = Solver::new(&g, k, scalar_cfg).solve();
        prop_assert_eq!(&word.vertices, &scalar.vertices);
        prop_assert_eq!(word.stats.nodes, scalar.stats.nodes);
    }

    #[test]
    fn kdclub_bound_keeps_witnesses_and_shrinks_trees(
        seed in 0u64..10_000,
        n in 16usize..34,
        p_percent in 30usize..55,
        k in 0usize..4,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let g = gen::gnp(n, p_percent as f64 / 100.0, &mut rng);
        for policy in POLICIES {
            let mut legacy_cfg = SolverConfig::kdc();
            legacy_cfg.branch_policy = policy;
            let mut club_cfg = legacy_cfg.clone();
            club_cfg.enable_kdclub = true;
            let club_scalar_cfg = club_cfg.clone().with_scalar_kernel();

            let legacy = Solver::new(&g, k, legacy_cfg).solve();
            let club = Solver::new(&g, k, club_cfg).solve();
            prop_assert_eq!(club.status, legacy.status);
            // A sound extra bound only prunes subtrees without improving
            // solutions, so under a fixed branch policy the incumbent
            // sequence — hence the final witness — is unchanged.
            prop_assert_eq!(
                &club.vertices, &legacy.vertices,
                "witness parity ({:?}, k={})", policy, k
            );
            prop_assert!(
                club.stats.nodes <= legacy.stats.nodes,
                "KD-Club grew the tree: {} > {} ({:?}, k={})",
                club.stats.nodes, legacy.stats.nodes, policy, k
            );

            // The bound itself is kernel-independent: scalar × kdclub
            // walks the identical tree.
            let club_scalar = Solver::new(&g, k, club_scalar_cfg).solve();
            prop_assert_eq!(&club_scalar.vertices, &club.vertices);
            prop_assert_eq!(club_scalar.stats.nodes, club.stats.nodes);
        }
    }
}
