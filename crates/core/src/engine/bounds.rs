//! Upper bounds (§3.2.1).
//!
//! * **UB1** — improved colouring bound: colour the candidates greedily in
//!   reverse degeneracy order; inside each colour class sort vertices by
//!   `|N̄_S(·)|` ascending and give the j-th vertex weight
//!   `w = |N̄_S(v)| + (j − 1)`; the instance bound is `|S|` plus the longest
//!   prefix of all weights (ascending) whose sum fits in `k − |Ē(S)|`.
//! * **UB2** — `min_{u ∈ S} d_g(u) + 1 + k` \[11\]. Reported by
//!   [`crate::probe`] only: RR5 on S enforces it before any bound runs.
//! * **UB3** — `|S|` plus the longest ascending prefix of `|N̄_S(·)|` values
//!   fitting in `k − |Ē(S)|` \[16\].
//! * **Eq. (2)** — the original MADEC colouring bound
//!   `|S| + Σ_i min(⌊(1+√(8k+1))/2⌋, |π_i|)`, kept for the MADEC-like
//!   baseline and for tightness experiments; UB1 is never larger.
//! * **KD-Club bound** — a KD-Club-style \[Jin et al., AAAI 2024\] per-node
//!   re-colouring: instead of reusing the static root-universe colouring
//!   order, the *current* candidate subgraph is re-coloured with the
//!   non-neighbours of `S` packed first (ordered by `|N̄_S(·)|` descending,
//!   then current alive degree descending), and the budget `k − |Ē(S)|` is
//!   distributed greedily across the resulting colour classes. Fresh classes
//!   track the reduced subgraph, so the costly vertices concentrate in few
//!   classes and pick up larger within-class penalties — usually a tighter
//!   bound, always a sound one (any proper colouring yields valid classes).
//!   Evaluated only when UB3 and UB1 fail to prune, so it can shrink the tree
//!   but never loosen it.

use super::Engine;
use crate::stats::bound;

/// Nanoseconds since `*t` (updating it to now), or 0 when timing is off.
/// The per-bound cost attribution in [`Engine::upper_bound`] threads one
/// running timestamp through the stages so each executed stage costs at
/// most one extra clock read.
#[inline]
fn lap_ns(t: &mut Option<std::time::Instant>) -> u64 {
    match t {
        Some(prev) => {
            let now = std::time::Instant::now();
            let ns = now.duration_since(*prev).as_nanos() as u64;
            *prev = now;
            ns
        }
        None => 0,
    }
}

impl Engine {
    /// Computes an upper bound for the current instance, evaluating the
    /// cheap UB3 first, the colouring bounds (UB1/Eq. (2)) when it fails to
    /// prune against `lb`, and the KD-Club re-colouring bound last. UB2 has
    /// no stage: RR5 on S already enforces it (see the `reductions` module
    /// docs). Returns
    /// `(bound, ub1_was_strictly_needed, kdclub_was_strictly_needed)`; each
    /// flag records that the bound was strictly smaller than every other
    /// enabled bound (used by the ablation statistics and the `--stats`
    /// prune counters).
    pub(crate) fn upper_bound(&mut self, lb: usize) -> (usize, bool, bool) {
        debug_assert!(self.missing_in_s <= self.k);
        let budget = self.k - self.missing_in_s;

        let mut best = usize::MAX;
        let mut t = if self.obs_timing {
            Some(std::time::Instant::now())
        } else {
            None
        };

        if self.config.enable_ub3 {
            best = self.ub3(budget);
            let bc = &mut self.stats.bound_costs[bound::UB3];
            bc.invocations += 1;
            bc.ns += lap_ns(&mut t);
            if best <= lb {
                bc.prunes += 1;
                return (best, false, false);
            }
        }

        let mut ub1_flag = false;
        if self.config.enable_ub1 || self.config.use_eq2_bound {
            let (ub1, eq2, _) = self.coloring_bounds(budget);
            if self.config.use_eq2_bound {
                best = best.min(eq2);
            }
            if self.config.enable_ub1 {
                if ub1 < best {
                    ub1_flag = true;
                }
                best = best.min(ub1);
            }
            // Cost attribution lumps UB1 and the Eq. (2) replacement
            // together: exactly one colouring family is active per preset.
            let bc = &mut self.stats.bound_costs[bound::UB1];
            bc.invocations += 1;
            bc.ns += lap_ns(&mut t);
            if best <= lb {
                bc.prunes += 1;
                return (best, ub1_flag, false);
            }
        }

        // KD-Club re-colouring: the most expensive colouring bound, so it
        // only runs on instances every cheaper bound failed to close.
        let mut kdclub_flag = false;
        if self.config.enable_kdclub {
            let ubk = self.kdclub_bound(budget);
            if ubk < best {
                kdclub_flag = true;
                ub1_flag = false;
                best = ubk;
            }
            let bc = &mut self.stats.bound_costs[bound::KDCLUB];
            bc.invocations += 1;
            bc.ns += lap_ns(&mut t);
            if best <= lb {
                bc.prunes += 1;
            }
        }

        (best, ub1_flag, kdclub_flag)
    }

    /// Test hook for the colouring bounds: `(UB1, Eq. (2), num_colors)`.
    #[cfg(test)]
    pub(crate) fn coloring_bounds_for_test(&mut self) -> (usize, usize, usize) {
        let budget = self.k - self.missing_in_s_for_test();
        self.coloring_bounds(budget)
    }

    /// Computes all four bounds regardless of configuration:
    /// `(UB1, Eq. (2), UB2-or-MAX, UB3)`. Used by [`crate::probe`]. UB2 is
    /// evaluated only here; the search never needs it (RR5 on S).
    pub(crate) fn all_bounds(&mut self) -> (usize, usize, usize, usize) {
        let budget = self.k - self.missing_in_s;
        let ub2 = self.vs[..self.s_end]
            .iter()
            .map(|&u| self.deg[u as usize] as usize + 1 + self.k)
            .min()
            .unwrap_or(usize::MAX);
        let ub3 = self.ub3(budget);
        let (ub1, eq2, _) = self.coloring_bounds(budget);
        (ub1, eq2, ub2, ub3)
    }

    /// UB3: `|S|` plus the longest prefix of candidates, by ascending
    /// `|N̄_S(·)|`, whose non-neighbour counts fit in `budget`.
    fn ub3(&mut self, budget: usize) -> usize {
        self.sort_cands_by_non_nbr();
        let mut left = budget;
        let mut cnt = 0usize;
        for &v in &self.scratch_cands {
            let nn = self.non_nbr_s[v as usize] as usize;
            if nn > left {
                break;
            }
            left -= nn;
            cnt += 1;
        }
        self.s_end + cnt
    }

    /// Greedy colouring of the candidate set in reverse degeneracy order of
    /// the root universe, then both colouring-based bounds:
    /// `(UB1, Eq. (2), num_colors)`.
    fn coloring_bounds(&mut self, budget: usize) -> (usize, usize, usize) {
        let s = self.s_end;
        let num_cands = self.cand_end - self.s_end;
        if num_cands == 0 {
            return (s, s, 0);
        }

        // Candidates in descending root-degeneracy rank (= reverse
        // degeneracy order restricted to the alive candidates). When the
        // universe is not much larger than the candidate set, a filtered
        // scan over the pre-sorted universe beats re-sorting per node.
        self.scratch_cands.clear();
        if self.n <= 8 * num_cands {
            for i in (0..self.n).rev() {
                let v = self.root_peel.order()[i];
                if self.is_cand(v) {
                    self.scratch_cands.push(v);
                }
            }
        } else {
            self.scratch_cands
                .extend_from_slice(&self.vs[self.s_end..self.cand_end]);
            let root_rank = self.root_peel.rank();
            self.scratch_cands
                .sort_unstable_by_key(|&v| std::cmp::Reverse(root_rank[v as usize]));
        }
        debug_assert_eq!(self.scratch_cands.len(), num_cands);

        // Greedy first-fit colouring.
        let num_colors = self.color_scratch_cands();

        let (taken, eq2_sum) = self.distribute_budget_over_classes(budget, num_colors);

        // UB1: longest ascending-weight prefix fitting in the budget.
        let ub1 = s + taken;

        // Eq. (2): each class contributes up to ⌊(1+√(8k+1))/2⌋ vertices,
        // independently of S and of the other classes.
        let eq2 = s + eq2_sum;

        (ub1, eq2, num_colors)
    }

    /// KD-Club-style bound: re-colour the *current* candidate subgraph with
    /// the non-neighbours of S packed first (|N̄_S| descending, then current
    /// alive degree descending, vertex id as the final total-order
    /// tie-break), then distribute `budget = k − |Ē(S)|` greedily across the
    /// fresh colour classes exactly as UB1 does. Sound for any proper
    /// colouring; tighter than UB1 whenever the per-node classes pack the
    /// costly vertices better than the stale root-order classes.
    pub(crate) fn kdclub_bound(&mut self, budget: usize) -> usize {
        let s = self.s_end;
        if self.cand_end == self.s_end {
            return s;
        }
        self.scratch_cands.clear();
        self.scratch_cands
            .extend_from_slice(&self.vs[self.s_end..self.cand_end]);
        let non_nbr_s = &self.non_nbr_s;
        let deg = &self.deg;
        self.scratch_cands.sort_unstable_by_key(|&v| {
            (
                std::cmp::Reverse(non_nbr_s[v as usize]),
                std::cmp::Reverse(deg[v as usize]),
                v,
            )
        });
        let num_colors = self.color_scratch_cands();
        let (taken, _) = self.distribute_budget_over_classes(budget, num_colors);
        s + taken
    }

    /// First-fit colours `scratch_cands` in its current order through
    /// whichever machinery fits the representation; returns the number of
    /// colours used (`scratch_color[v]` holds each candidate's class).
    fn color_scratch_cands(&mut self) -> usize {
        let words = self.matrix.as_ref().map_or(usize::MAX, |m| m.row(0).len());
        let num_colors = if words <= 16 {
            self.color_candidates_matrix(words)
        } else {
            self.color_candidates_lists()
        };
        num_colors as usize
    }

    /// The shared tail of every class-based colouring bound: given coloured
    /// `scratch_cands`, sorts the (colour, |N̄_S|) pairs, assigns the j-th
    /// member of a class the weight `|N̄_S| + (j − 1)` and greedily takes the
    /// longest ascending-weight prefix whose sum fits in `budget`. Returns
    /// `(taken, eq2_sum)` where `eq2_sum` is the fused Eq. (2) per-class cap
    /// `Σ_i min(⌊(1+√(8k+1))/2⌋, |π_i|)`.
    fn distribute_budget_over_classes(
        &mut self,
        budget: usize,
        num_colors: usize,
    ) -> (usize, usize) {
        // Pairs (colour, |N̄_S|) sorted by colour then non-neighbour count:
        // two stable counting sorts (by nn, then by colour).
        self.scratch_pairs.clear();
        for idx in 0..self.scratch_cands.len() {
            let v = self.scratch_cands[idx];
            self.scratch_pairs
                .push((self.scratch_color[v as usize], self.non_nbr_s[v as usize]));
        }
        self.counting_sort_pairs(num_colors);

        // Weights, clamped to budget + 1 ("never takeable"), counting-sorted.
        // The Eq. (2) per-class cap is fused into the same pairs walk so no
        // per-node allocation is needed.
        self.scratch_buckets.clear();
        self.scratch_buckets.resize(budget + 2, 0);
        let d_max = ((1.0 + ((8 * self.k + 1) as f64).sqrt()) / 2.0).floor() as usize;
        let mut eq2_sum = 0usize;
        let mut prev_color = u32::MAX;
        let mut j = 0usize;
        for &(color, nn) in &self.scratch_pairs {
            if color != prev_color {
                prev_color = color;
                j = 0;
            }
            if j < d_max {
                eq2_sum += 1;
            }
            let w = (nn as usize + j).min(budget + 1);
            self.scratch_buckets[w] += 1;
            j += 1;
        }

        // Longest ascending-weight prefix fitting in the budget.
        let mut left = budget;
        let mut taken = 0usize;
        for w in 0..=budget {
            let cnt = self.scratch_buckets[w] as usize;
            if cnt == 0 {
                continue;
            }
            let fit = match left.checked_div(w) {
                Some(quota) => cnt.min(quota),
                None => cnt, // weight 0: all fit for free
            };
            taken += fit;
            left -= fit * w;
            if fit < cnt {
                break;
            }
        }
        (taken, eq2_sum)
    }

    /// First-fit colouring of `scratch_cands` (already in colouring order)
    /// via per-class bitsets over the dense adjacency matrix: vertex `v`
    /// joins the first class whose member mask does not intersect `row(v)`.
    /// Returns the number of colours.
    fn color_candidates_matrix(&mut self, words: usize) -> u32 {
        let mx = self.matrix.as_ref().expect("matrix path");
        self.scratch_classes.clear();
        let mut num_colors = 0u32;
        for idx in 0..self.scratch_cands.len() {
            let v = self.scratch_cands[idx] as usize;
            let row = mx.row(v);
            let mut color = num_colors;
            'classes: for c in 0..num_colors as usize {
                let class = &self.scratch_classes[c * words..(c + 1) * words];
                for (cw, rw) in class.iter().zip(row) {
                    if cw & rw != 0 {
                        continue 'classes;
                    }
                }
                color = c as u32;
                break;
            }
            if color == num_colors {
                num_colors += 1;
                self.scratch_classes.resize(num_colors as usize * words, 0);
            }
            self.scratch_classes[color as usize * words + v / 64] |= 1u64 << (v % 64);
            self.scratch_color[v] = color;
        }
        num_colors
    }

    /// First-fit colouring of `scratch_cands` via adjacency lists and
    /// colour-usage stamps (the sparse/large-universe path). Returns the
    /// number of colours.
    fn color_candidates_lists(&mut self) -> u32 {
        let num_cands = self.scratch_cands.len();
        for idx in 0..num_cands {
            let v = self.scratch_cands[idx];
            self.scratch_color[v as usize] = u32::MAX;
        }
        self.scratch_used.resize(num_cands + 1, 0);
        let mut num_colors = 0u32;
        for idx in 0..num_cands {
            let v = self.scratch_cands[idx];
            self.scratch_serial += 1;
            let serial = self.scratch_serial;
            let (start, end) = self.row_range(v);
            for i in start..end {
                let w = self.adj_dat[i];
                if self.is_cand(w) {
                    let c = self.scratch_color[w as usize];
                    if c != u32::MAX {
                        self.scratch_used[c as usize] = serial;
                    }
                }
            }
            let mut c = 0u32;
            while self.scratch_used[c as usize] == serial {
                c += 1;
            }
            self.scratch_color[v as usize] = c;
            num_colors = num_colors.max(c + 1);
        }
        num_colors
    }

    /// Stable two-pass counting sort of `scratch_pairs` by (colour, nn):
    /// first by `nn` (values ≤ k + 1 after the RR1 fixpoint), then by colour.
    fn counting_sort_pairs(&mut self, num_colors: usize) {
        let n = self.scratch_pairs.len();
        // Pass 1: by nn.
        self.scratch_buckets.clear();
        self.scratch_buckets.resize(self.k + 2, 0);
        for &(_, nn) in &self.scratch_pairs {
            self.scratch_buckets[(nn as usize).min(self.k + 1)] += 1;
        }
        let mut acc = 0u32;
        for b in self.scratch_buckets.iter_mut() {
            let c = *b;
            *b = acc;
            acc += c;
        }
        self.scratch_pairs_tmp.clear();
        self.scratch_pairs_tmp.resize(n, (0, 0));
        for i in 0..n {
            let pair = self.scratch_pairs[i];
            let slot = &mut self.scratch_buckets[(pair.1 as usize).min(self.k + 1)];
            self.scratch_pairs_tmp[*slot as usize] = pair;
            *slot += 1;
        }
        // Pass 2: by colour (stable, preserving nn order within a colour).
        self.scratch_buckets.clear();
        self.scratch_buckets.resize(num_colors.max(1), 0);
        for &(c, _) in &self.scratch_pairs_tmp {
            self.scratch_buckets[c as usize] += 1;
        }
        let mut acc = 0u32;
        for b in self.scratch_buckets.iter_mut() {
            let cnt = *b;
            *b = acc;
            acc += cnt;
        }
        for i in 0..n {
            let pair = self.scratch_pairs_tmp[i];
            let slot = &mut self.scratch_buckets[pair.0 as usize];
            self.scratch_pairs[*slot as usize] = pair;
            *slot += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SolverConfig;
    use crate::engine::{Engine, Reduced};
    use crate::solver::SolveBudget;

    fn engine(g: &kdc_graph::Graph, k: usize, cfg: SolverConfig) -> Engine {
        crate::engine::primed(g, k, cfg, 0)
    }

    /// Builds the Figure 5 instance: S = two isolated vertices, candidates a
    /// complete 3-partite graph, k = 3.
    fn figure5_engine(cfg: SolverConfig) -> Engine {
        let (g, s) = kdc_graph::named::figure5();
        let mut e = engine(&g, 3, cfg);
        for v in s {
            e.add_to_s_for_test(v);
        }
        e
    }

    #[test]
    fn example_3_7_ub1_is_three() {
        let mut cfg = SolverConfig::kdc_t();
        cfg.enable_ub1 = true;
        let mut e = figure5_engine(cfg);
        assert_eq!(e.missing_in_s_for_test(), 1);
        let (ub, ub1_needed, _) = e.upper_bound(0);
        assert_eq!(ub, 3, "UB1 of Example 3.7");
        assert!(ub1_needed);
    }

    #[test]
    fn example_3_6_eq2_is_eleven() {
        let mut cfg = SolverConfig::kdc_t();
        cfg.use_eq2_bound = true;
        let mut e = figure5_engine(cfg);
        let (ub, _, _) = e.upper_bound(0);
        assert_eq!(ub, 11, "Eq. (2) of Example 3.6");
    }

    #[test]
    fn ub1_never_exceeds_eq2_or_s_plus_c_plus_k() {
        // §3.2.1 claims UB1 ≤ Eq.(2) and UB1 ≤ |S| + c + k − |Ē(S)|.
        let mut rng = kdc_graph::gen::seeded_rng(99);
        for _ in 0..30 {
            let g = kdc_graph::gen::gnp(24, 0.45, &mut rng);
            for k in [1usize, 3, 6] {
                let mut cfg = SolverConfig::kdc_t();
                cfg.enable_ub1 = true;
                cfg.use_eq2_bound = true;
                let mut e = engine(&g, k, cfg);
                // Grow a small random-ish S via the branching vertex.
                for _ in 0..3 {
                    if let Some(v) = e.first_feasible_candidate_for_test() {
                        e.add_to_s_for_test(v);
                    }
                }
                let (ub1, eq2, colors) = e.coloring_bounds_for_test();
                assert!(ub1 <= eq2, "UB1 {ub1} > Eq2 {eq2}");
                let s = e.s_len_for_test();
                let miss = e.missing_in_s_for_test();
                assert!(ub1 <= s + colors + k - miss);
            }
        }
    }

    #[test]
    fn ub3_on_figure5() {
        // Every candidate has 2 non-neighbours in S; budget = k − |Ē(S)| = 2
        // → exactly one candidate fits → UB3 = 3.
        let mut cfg = SolverConfig::kdc_t();
        cfg.enable_ub3 = true;
        let mut e = figure5_engine(cfg);
        let (ub, _, _) = e.upper_bound(0);
        assert_eq!(ub, 3);
    }

    #[test]
    fn matrix_and_list_coloring_paths_agree() {
        // Both paths implement first-fit colouring over the same order, so
        // the resulting bounds must be identical.
        let mut rng = kdc_graph::gen::seeded_rng(314);
        for trial in 0..20 {
            let g = kdc_graph::gen::gnp(40, 0.35, &mut rng);
            for k in [1usize, 4] {
                let mut with_matrix = SolverConfig::kdc_t();
                with_matrix.enable_ub1 = true;
                let without = with_matrix.clone().with_scalar_kernel();

                let mut e1 = engine(&g, k, with_matrix);
                let mut e2 = engine(&g, k, without);
                // Grow identical S in both.
                for _ in 0..2 {
                    let v1 = e1.first_feasible_candidate_for_test();
                    let v2 = e2.first_feasible_candidate_for_test();
                    assert_eq!(v1, v2);
                    if let Some(v) = v1 {
                        e1.add_to_s_for_test(v);
                        e2.add_to_s_for_test(v);
                    }
                }
                let b1 = e1.coloring_bounds_for_test();
                let b2 = e2.coloring_bounds_for_test();
                assert_eq!(b1, b2, "trial {trial} k {k}");
            }
        }
    }

    #[test]
    fn all_branch_policies_stay_exact() {
        use crate::config::BranchPolicy;
        let mut rng = kdc_graph::gen::seeded_rng(315);
        for _ in 0..8 {
            let g = kdc_graph::gen::gnp(18, 0.45, &mut rng);
            for k in [0usize, 2] {
                let mut sizes = Vec::new();
                for policy in [BranchPolicy::MaxNonNeighbors, BranchPolicy::MaxDegreeAny] {
                    let mut cfg = SolverConfig::kdc();
                    cfg.branch_policy = policy;
                    let sol = crate::Solver::new(&g, k, cfg).solve();
                    sizes.push(sol.size());
                }
                assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
            }
        }
    }

    #[test]
    fn bounds_are_sound_on_random_instances() {
        // Each of the four bounds must dominate, on its own, the optimum of
        // its instance (computed by the bare engine run to completion): at
        // the root and with one vertex forced into S, where UB2 is finite.
        let mut rng = kdc_graph::gen::seeded_rng(7);
        for trial in 0..15 {
            let g = kdc_graph::gen::gnp(18, 0.5, &mut rng);
            for k in [0usize, 2, 4] {
                for forced in [None, Some(trial as u32 % 18)] {
                    let prime = || {
                        let mut e = engine(&g, k, SolverConfig::kdc_t());
                        if let Some(v) = forced {
                            e.add_to_s_for_test(v);
                        }
                        e
                    };
                    let mut exact = prime();
                    assert!(exact.run(&SolveBudget::default()));
                    let opt = exact.best().len();
                    let (ub1, eq2, ub2, ub3) = prime().all_bounds();
                    let named = [("UB1", ub1), ("Eq. (2)", eq2), ("UB2", ub2), ("UB3", ub3)];
                    for (name, ub) in named {
                        assert!(
                            ub >= opt,
                            "trial {trial} k {k} S {forced:?}: {name} {ub} < {opt}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rr5_on_s_keeps_ub2_above_lb_at_every_open_node() {
        // Why the search has no UB2 stage: whenever `reduce` leaves a node
        // open under a preset with RR5, UB2 = min_{u∈S} d(u) + 1 + k > lb.
        let mut rng = kdc_graph::gen::seeded_rng(318);
        let mut open_with_s = 0usize;
        for _ in 0..10 {
            let g = kdc_graph::gen::gnp(30, 0.5, &mut rng);
            for k in [0usize, 1, 3] {
                for cfg in [
                    SolverConfig::kdc(),
                    SolverConfig::kdbb_like(),
                    SolverConfig::madec_like(),
                ] {
                    for lb in [k + 1, k + 4, k + 7] {
                        let mut e = crate::engine::primed(&g, k, cfg.clone(), lb);
                        while e.reduce() == Reduced::Open {
                            let (_, _, ub2, _) = e.all_bounds();
                            assert!(ub2 > e.lb(), "UB2 {ub2} <= lb {} (k {k})", e.lb());
                            open_with_s += usize::from(e.s_end > 0);
                            let b = e.pick_branch_vertex();
                            e.add_to_s(b);
                        }
                    }
                }
            }
        }
        assert!(
            open_with_s > 100,
            "only {open_with_s} open nodes with S nonempty"
        );
    }
}
