//! Reduction rules applied at every search node (§3.1.1 and §3.2.2).
//!
//! * **RR1** (excess-removal): remove candidate `u` with `|Ē(S ∪ u)| > k`.
//! * **RR2** (high-degree): greedily add candidate `u` with `|Ē(S ∪ u)| ≤ k`
//!   and `d_g(u) ≥ |V(g)| − 2` to `S` (Lemma 3.1).
//! * **RR3** (degree-sequence): remove candidates that even the UB3
//!   relaxation cannot extend past `lb`.
//! * **RR4** (second-order): pair the most recently added S-vertex `u` with
//!   each candidate `v` and bound the instance `(g, S ∪ v)` through the
//!   common/exclusive-neighbourhood decomposition.
//! * **RR5** (core rule): remove candidates of alive degree `< lb − k`;
//!   if a vertex of `S` violates it, the whole instance is pruned (UB2).
//!
//! RR1/RR2/RR5 are iterated to a joint fixpoint; RR4 runs once per node
//! (§3.2.3) and RR3 afterwards, each followed by another fixpoint pass if
//! they removed anything. After the pipeline, Lemma 3.3 holds: every
//! candidate has `|Ē(S ∪ u)| ≤ k` and at least two non-neighbours in `g`.
//!
//! RR5 on S *is* UB2 (`min_{u∈S} d_g(u) + 1 + k`), which is why the bound
//! cascade has no UB2 stage. UB2 ≤ lb means some `u ∈ S` has
//! `d_g(u) ≤ lb − k − 1 < lb − k`, exactly the S vertex RR5 prunes on
//! when `lb > k`; when `lb ≤ k`, UB2 ≥ k + 1 > lb. Every fixpoint pass
//! ends with that check, so whenever [`Engine::reduce`] returns
//! [`Reduced::Open`] with RR5 enabled, UB2 > lb. The incumbent may then
//! rise to `|S|`, but UB2 ≤ |S| would need some `u ∈ S` that misses all
//! `k` edges of the budget and has no candidate neighbour. With the budget
//! spent, RR1 leaves only candidates adjacent to all of S, so no candidate
//! is left, the alive set is S, and the leaf rule has already returned.

use super::{Engine, Reduced};

impl Engine {
    /// Applies the configured reduction pipeline. Returns the node outcome.
    pub(crate) fn reduce(&mut self) -> Reduced {
        if self.missing_in_s > self.k {
            // Cannot happen when RR1 runs to fixpoint before branching, but
            // serves as a cheap safety net for exotic configurations.
            return Reduced::Pruned;
        }
        if self.fixpoint_rr125() == Reduced::Pruned {
            return Reduced::Pruned;
        }
        // RR4 and RR3 run once per node (§3.2.3 applies them in linear time
        // rather than to a fixpoint); a single follow-up RR1/RR2/RR5 pass
        // restores Lemma 3.3 if they removed anything.
        let mut removed_any = false;
        if self.config.enable_rr4 && self.s_end > 0 {
            let removed = self.apply_rr4();
            self.stats.rr4_removals += removed;
            removed_any |= removed > 0;
        }
        if self.config.enable_rr3 {
            let removed = self.apply_rr3();
            self.stats.rr3_removals += removed;
            removed_any |= removed > 0;
        }
        if removed_any && self.fixpoint_rr125() == Reduced::Pruned {
            return Reduced::Pruned;
        }
        // Leaf rule (Line 5 of Algorithm 1): the alive graph itself is a
        // k-defective clique.
        let a = self.alive_count();
        if a * a.saturating_sub(1) / 2 - self.edges_alive <= self.k {
            return Reduced::Leaf;
        }
        Reduced::Open
    }

    /// RR1 + RR2 + RR5 to a joint fixpoint.
    fn fixpoint_rr125(&mut self) -> Reduced {
        let lb = self.lb();
        let rr5_threshold = if self.config.enable_rr5 && lb > self.k {
            Some((lb - self.k) as u32) // remove if deg < lb − k
        } else {
            None
        };
        loop {
            let mut changed = false;

            // Removal scan: RR1 and RR5 over candidates. `remove_cand` swaps
            // the last candidate into position `i`, so `i` is not advanced
            // after a removal.
            let mut i = self.s_end;
            while i < self.cand_end {
                let v = self.vs[i];
                if self.missing_in_s + self.non_nbr_s[v as usize] as usize > self.k {
                    self.remove_cand(v);
                    self.stats.rr1_removals += 1;
                    changed = true;
                    continue;
                }
                if let Some(t) = rr5_threshold {
                    if self.deg[v as usize] < t {
                        self.remove_cand(v);
                        self.stats.rr5_removals += 1;
                        changed = true;
                        continue;
                    }
                }
                i += 1;
            }

            // RR5 on S: a too-low-degree S vertex dooms the instance.
            if let Some(t) = rr5_threshold {
                for i in 0..self.s_end {
                    if self.deg[self.vs[i] as usize] < t {
                        self.stats.s_vertex_prunes += 1;
                        return Reduced::Pruned;
                    }
                }
            }

            // RR2: greedily add near-universal feasible candidates. In §6
            // enumeration mode the threshold tightens to d_g(u) ≥ |V(g)| − 1
            // (only truly universal vertices), which preserves *all* maximal
            // solutions instead of just one maximum.
            if self.config.enable_rr2 {
                let slack = if self.pool_mode() { 1 } else { 2 };
                let mut i = self.s_end;
                while i < self.cand_end {
                    let v = self.vs[i];
                    let feasible =
                        self.missing_in_s + self.non_nbr_s[v as usize] as usize <= self.k;
                    if feasible && self.deg[v as usize] as usize + slack >= self.alive_count() {
                        self.add_to_s(v);
                        self.stats.rr2_additions += 1;
                        changed = true;
                        // `add_to_s` swapped the old boundary vertex into
                        // position i when i > old s_end; reprocess from the
                        // new boundary if the swap left i inside S.
                        if i < self.s_end {
                            i = self.s_end;
                        }
                        continue;
                    }
                    i += 1;
                }
            }

            if !changed {
                return Reduced::Open;
            }
        }
    }

    /// RR3 (degree-sequence): order candidates by `|N̄_S(·)|` ascending; with
    /// `t = lb − |S|`, any candidate ranked past `t` whose non-neighbour
    /// count exceeds `k − |Ē(S)| − Σ_{j ≤ t} |N̄_S(v_j)|` cannot appear in a
    /// solution larger than `lb` and is removed. Returns the removal count.
    fn apply_rr3(&mut self) -> u64 {
        let lb = self.lb();
        if lb <= self.s_end {
            // t ≤ 0: the rule degenerates to RR1 (already applied).
            return 0;
        }
        let t = lb - self.s_end;
        let num_cands = self.cand_end - self.s_end;
        if t >= num_cands {
            return 0;
        }
        self.sort_cands_by_non_nbr();
        let prefix: usize = self.scratch_cands[..t]
            .iter()
            .map(|&v| self.non_nbr_s[v as usize] as usize)
            .sum();
        let threshold = self.k as i64 - self.missing_in_s as i64 - prefix as i64;
        let mut removed = 0u64;
        // Values ascend, so the violating region is a suffix.
        for idx in t..num_cands {
            let v = self.scratch_cands[idx];
            if self.non_nbr_s[v as usize] as i64 > threshold {
                for j in idx..num_cands {
                    let w = self.scratch_cands[j];
                    self.remove_cand(w);
                    removed += 1;
                }
                break;
            }
        }
        removed
    }

    /// Prepares the scratch marks needed by [`Engine::rr4_pair_bound`] on
    /// the list representation: marks `u`'s candidate neighbours. On the
    /// dense one the pair bound intersects matrix rows instead, so there is
    /// nothing to prepare.
    fn prepare_rr4_marks(&mut self, u: u32) {
        if self.matrix.is_some() {
            return;
        }
        self.mark.reset();
        let (start, end) = self.row_range(u);
        for i in start..end {
            let w = self.adj_dat[i];
            if self.is_cand(w) {
                self.mark.mark(w as usize);
            }
        }
    }

    /// The second-order bound for the pair `(u ∈ S, v ∈ candidates)` of RR4:
    /// an upper bound on any k-defective clique containing `S ∪ v`, via
    /// common neighbours `cn`, exclusive neighbours `xn` and common
    /// non-neighbours `cnon` of `u` and `v` in `V(g) \ (S ∪ v)`.
    ///
    /// Requires [`Engine::prepare_rr4_marks`]`(u)` beforehand on the list
    /// representation; membership is re-checked live (via `is_cand` there,
    /// via `cand_mask` on the dense one), so interleaved candidate removals
    /// stay consistent.
    fn rr4_pair_bound(&self, u: u32, v: u32) -> usize {
        let s = self.s_end;
        let nbrs_in_s_u = (s - 1) - self.non_nbr_s[u as usize] as usize;
        let missing_sp = self.missing_in_s + self.non_nbr_s[v as usize] as usize;
        debug_assert!(missing_sp <= self.k, "RR1 fixpoint must precede RR4");

        let uv_adjacent = self.has_edge(u, v);
        // |N_{S̄'}(u)|: u's alive neighbours outside S, minus v if adjacent.
        let cand_nbrs_u = self.deg[u as usize] as usize - nbrs_in_s_u;
        let a_size = cand_nbrs_u - usize::from(uv_adjacent);
        // |N_{S̄'}(v)|: v's alive neighbours outside S (u ∈ S is excluded
        // via nbrs-in-S accounting).
        let nbrs_in_s_v = s - self.non_nbr_s[v as usize] as usize;
        let b_size = self.deg[v as usize] as usize - nbrs_in_s_v;

        // v ∉ row(v) and u ∉ cand_mask, so the masked intersection is
        // exactly N(u) ∩ N(v) ∩ (candidates \ {v}).
        let cn = match &self.matrix {
            Some(mx) => mx.row_row_mask_intersection_len(u as usize, v as usize, &self.cand_mask),
            None => self
                .nbrs(v)
                .iter()
                .filter(|&&w| self.is_cand(w) && self.mark.is_marked(w as usize))
                .count(),
        };

        let total_sp = (self.cand_end - self.s_end) - 1; // |S̄'|
        let xn = a_size + b_size - 2 * cn;
        // |S̄'| − |A ∪ B| with |A ∪ B| = a + b − cn ≤ |S̄'|; keep the
        // addition first so unsigned arithmetic cannot underflow.
        let cnon = (total_sp + cn) - (a_size + b_size);
        let k_rem = self.k - missing_sp;

        // min(k_rem, xn + min(cnon, max(0, ⌊(k_rem − xn)/2⌋)))
        let half = if k_rem > xn { (k_rem - xn) / 2 } else { 0 };
        (s + 1) + cn + k_rem.min(xn + cnon.min(half))
    }

    /// RR4 (second-order): with `u` the most recently added S-vertex, bound
    /// each instance `(g, S ∪ v)` and remove `v` when the bound cannot beat
    /// `lb`. Returns the removal count.
    fn apply_rr4(&mut self) -> u64 {
        let u = self.vs[self.s_end - 1];
        let lb = self.lb();
        self.prepare_rr4_marks(u);

        let mut removed = 0u64;
        let mut i = self.s_end;
        while i < self.cand_end {
            let v = self.vs[i];
            if self.rr4_pair_bound(u, v) <= lb {
                self.remove_cand(v);
                removed += 1;
                continue;
            }
            i += 1;
        }
        removed
    }

    /// Counting-sorts the candidates by `non_nbr_s` ascending into
    /// `scratch_cands`. Values are ≤ k after the RR1 fixpoint.
    pub(crate) fn sort_cands_by_non_nbr(&mut self) {
        let num = self.cand_end - self.s_end;
        self.scratch_buckets.clear();
        self.scratch_buckets.resize(self.k + 2, 0);
        for i in self.s_end..self.cand_end {
            let v = self.vs[i];
            let nn = (self.non_nbr_s[v as usize] as usize).min(self.k + 1);
            self.scratch_buckets[nn] += 1;
        }
        let mut acc = 0u32;
        for b in self.scratch_buckets.iter_mut() {
            let c = *b;
            *b = acc;
            acc += c;
        }
        self.scratch_cands.clear();
        self.scratch_cands.resize(num, 0);
        for i in self.s_end..self.cand_end {
            let v = self.vs[i];
            let nn = (self.non_nbr_s[v as usize] as usize).min(self.k + 1);
            self.scratch_cands[self.scratch_buckets[nn] as usize] = v;
            self.scratch_buckets[nn] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SolverConfig;
    use crate::engine::{primed as engine, Reduced};

    #[test]
    fn example_3_2_rr2_greedily_fills_s() {
        // Figure 4, k = 3: RR2 must iteratively move v1..v5 into S at the
        // root (v1 is universal; g1 vertices have degree n − 2 and stay
        // feasible as they join).
        let g = kdc_graph::named::figure4();
        let mut e = engine(&g, 3, SolverConfig::kdc_t(), 0);
        let outcome = e.reduce();
        assert_eq!(outcome, Reduced::Open);
        assert_eq!(e.s_end, 5, "S = {{v1..v5}}");
        let mut s: Vec<u32> = e.vs[..e.s_end].to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
        assert_eq!(e.missing_in_s, 2, "C4 misses (v2,v4) and (v3,v5)");
    }

    #[test]
    fn example_3_2_rr1_after_branching() {
        // Continue Example 3.2: include v6 then v8; S misses 3 edges and RR1
        // must remove v7 and v9.
        let g = kdc_graph::named::figure4();
        let mut e = engine(&g, 3, SolverConfig::kdc_t(), 0);
        assert_eq!(e.reduce(), Reduced::Open);
        e.add_to_s(5); // v6
        assert_eq!(e.reduce(), Reduced::Open, "RR1/RR2 have no effect on S1");
        assert_eq!(e.s_end, 6);
        e.add_to_s(7); // v8
        assert_eq!(e.missing_in_s, 3);
        let outcome = e.reduce();
        // v7 and v9 each have a non-neighbour among {v6, v8}; adding either
        // would exceed k = 3 → RR1 removes both → alive = S → leaf.
        assert_eq!(outcome, Reduced::Leaf);
        assert_eq!(e.alive_count(), 7);
        assert!(!e.vs[..e.alive_count()].contains(&6));
        assert!(!e.vs[..e.alive_count()].contains(&8));
    }

    #[test]
    fn lemma_3_3_holds_after_fixpoint() {
        // After RR1+RR2 fixpoint every candidate has ≥ 2 non-neighbours in g
        // and |Ē(S ∪ u)| ≤ k.
        let mut rng = kdc_graph::gen::seeded_rng(33);
        for _ in 0..10 {
            let g = kdc_graph::gen::gnp(25, 0.5, &mut rng);
            let mut e = engine(&g, 2, SolverConfig::kdc_t(), 0);
            if e.reduce() != Reduced::Open {
                continue;
            }
            for i in e.s_end..e.cand_end {
                let v = e.vs[i];
                assert!(
                    e.missing_in_s + e.non_nbr_s[v as usize] as usize <= 2,
                    "RR1 violated for {v}"
                );
                assert!(
                    e.deg[v as usize] as usize + 2 < e.alive_count(),
                    "RR2 violated for {v}: deg {} alive {}",
                    e.deg[v as usize],
                    e.alive_count()
                );
            }
        }
    }

    #[test]
    fn rr5_peels_low_degree_candidates() {
        // Star K1,5 with a triangle attached: with lb = 3, k = 1 every
        // vertex of alive degree < 2 is dropped.
        let g = kdc_graph::Graph::from_edges(
            7,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (5, 6)],
        );
        let mut cfg = SolverConfig::kdc();
        cfg.enable_rr3 = false;
        cfg.enable_rr4 = false;
        cfg.enable_ub1 = false;
        let mut e = engine(&g, 1, cfg, 3);
        let out = e.reduce();
        // Leaves 1..4 have degree 1 < lb − k = 2 → removed; the triangle
        // {0,5,6} plus nothing else remains and is 1-defective → leaf.
        assert_eq!(out, Reduced::Leaf);
        let mut alive: Vec<u32> = e.vs[..e.alive_count()].to_vec();
        alive.sort_unstable();
        assert_eq!(alive, vec![0, 5, 6]);
    }

    #[test]
    fn rr3_removes_hopeless_candidates() {
        // Triangle {0,1,2} plus edge {3,4}; S = {3}, lb = 3, k = 1. The UB3
        // ordering is (4 | 0,1,2) with non-neighbour counts (0 | 1,1,1) and
        // prefix sum 0 + 1 = 1 for t = lb − |S| = 2, so the threshold is
        // k − |Ē(S)| − 1 = 0 and the two candidates ranked past t (each with
        // one S-non-neighbour) are removed by RR3.
        let g = kdc_graph::Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let mut cfg = SolverConfig::kdc();
        cfg.enable_rr5 = false;
        cfg.enable_rr4 = false;
        let mut e = engine(&g, 1, cfg, 3);
        e.add_to_s(3);
        let _ = e.reduce();
        assert!(
            e.stats.rr3_removals >= 2,
            "RR3 removed {} vertices",
            e.stats.rr3_removals
        );
    }

    #[test]
    fn counting_sort_orders_by_non_nbr() {
        let g = kdc_graph::Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let mut e = engine(&g, 3, SolverConfig::kdc_t(), 0);
        e.add_to_s(1);
        e.add_to_s(2);
        // non_nbr_s: v0 → 0, v3 → 2.
        e.sort_cands_by_non_nbr();
        assert_eq!(e.scratch_cands, vec![0, 3]);
    }
}
