//! Batched query execution: one planned sweep over many sub-queries.
//!
//! A [`Query::Batch`](crate::Query::Batch) carries a list of [`SubQuery`]s
//! — typically a k-sweep (`k = 0..=K`) over one resident graph — and this
//! module answers all of them as *one* execution instead of a loop around
//! [`Session::run_with`]:
//!
//! * [`BatchPlan`] groups the sub-queries by algorithm (preset), orders
//!   each group's entries by ascending `k` and deduplicates identical
//!   sub-queries up front (every duplicate still receives its own answer).
//! * [`BatchExec`] drives the plan: each proven optimum becomes a witness
//!   seed and a cross-`k` bound for the entries still to run. A witness
//!   for `k' ≤ k` is feasible at `k`, so it seeds the incumbent; and
//!   `opt(k) ≤ opt(k') ≤ opt(k) + (k' − k)` for `k ≤ k'` (drop a vertex
//!   incident to a missing edge), so every proven size caps the remaining
//!   entries via [`kdc::SolverConfig::known_ub`]. The largest witness
//!   size accumulated so far is folded into the resident reducer through
//!   one [`kdc_graph::ctcp::Ctcp::tighten`] per sub-solve.
//! * Answers stream through the session's ordinary [`Observer`] channel:
//!   one [`Event::SubDone`] per input sub-query (duplicates included), in
//!   completion order, before the final [`Event::Done`].
//!
//! The caps only ever stop a search early — they never alter pruning — so
//! every reported witness is the one the equivalent individual solve would
//! have produced (pinned by `tests/batch_parity.rs`). Shared work is
//! accounted honestly in the returned [`BatchOutcome`]: `batch_ctcp_shares`
//! (sub-solves whose reducer consumed batch-contributed bounds),
//! `batch_witness_seeds` (sub-solves seeded by another sub-query's
//! witness), `batch_memo_dedups` (sub-queries answered without a search of
//! their own), mirrored on the session counters and the `kdc_session_batch_*`
//! registry series.

use crate::query::{Budget, Event, Observer, Options, Outcome};
use crate::session::{Session, SweepHints};
use kdc::Status;
use kdc_graph::VertexId;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One element of a [`Query::Batch`](crate::Query::Batch): a solve (the
/// default) or a top-`r` enumeration at one `k`, optionally under its own
/// preset (sub-queries without one inherit the batch's [`Options`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubQuery {
    /// The k of the k-defective clique.
    pub k: usize,
    /// When set, enumerate a pool of the `r` largest maximal k-defective
    /// cliques ([`Query::TopR`](crate::Query::TopR) semantics, no
    /// diversification) instead of solving for one maximum witness.
    pub r: Option<usize>,
    /// Preset override for this sub-query; `None` inherits the batch's
    /// [`Options`].
    pub preset: Option<String>,
}

impl SubQuery {
    /// A maximum-solve sub-query at `k` under the batch's default preset.
    pub fn solve(k: usize) -> Self {
        SubQuery {
            k,
            r: None,
            preset: None,
        }
    }

    /// Turns this sub-query into a top-`r` enumeration.
    #[must_use]
    pub fn with_r(mut self, r: usize) -> Self {
        self.r = Some(r);
        self
    }

    /// Overrides the preset for this sub-query.
    #[must_use]
    pub fn with_preset(mut self, preset: &str) -> Self {
        self.preset = Some(preset.to_string());
        self
    }
}

/// One planned unit of work: a deduplicated `(k, r)` pair plus every input
/// position it answers.
#[derive(Clone, Debug)]
struct PlanEntry {
    k: usize,
    r: Option<usize>,
    /// Input positions (into the caller's sub-query list) answered by this
    /// entry, ascending.
    indices: Vec<usize>,
}

/// One preset group of a plan: entries sharing a graph, preset and RR
/// flags, swept in ascending `k` so cross-`k` seeding and capping apply.
#[derive(Clone, Debug)]
struct PlanGroup {
    options: Options,
    entries: Vec<PlanEntry>,
}

/// A validated execution plan for a batch: sub-queries grouped by preset,
/// each group ordered ascending in `k` (solves before enumerations at the
/// same `k`) and deduplicated. Built eagerly so an unknown preset fails
/// before any work runs.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    groups: Vec<PlanGroup>,
    total: usize,
}

impl BatchPlan {
    /// Plans `subs` under `default_options` (inherited by sub-queries
    /// without a preset of their own).
    ///
    /// # Errors
    ///
    /// Fails on an empty batch, on a sub-query with `r = Some(0)`, or on
    /// an unknown preset name (validated here, not mid-sweep).
    pub fn new(subs: &[SubQuery], default_options: &Options) -> Result<Self, String> {
        if subs.is_empty() {
            return Err("batch query must contain at least one sub-query".to_string());
        }
        // Group by preset override (`None` = the batch default). BTreeMap
        // keeps group order deterministic: default group first, then named
        // overrides alphabetically.
        let mut by_preset: BTreeMap<Option<String>, Vec<(usize, &SubQuery)>> = BTreeMap::new();
        for (idx, sub) in subs.iter().enumerate() {
            if sub.r == Some(0) {
                return Err(format!("sub-query {idx}: top-r pool size must be positive"));
            }
            by_preset
                .entry(sub.preset.clone())
                .or_default()
                .push((idx, sub));
        }
        let mut groups = Vec::with_capacity(by_preset.len());
        for (preset, members) in by_preset {
            let options = match preset {
                Some(name) => Options::preset(&name)?,
                None => default_options.clone(),
            };
            // Dedup on (k, r), then sweep ascending in k; a solve runs
            // before an enumeration at the same k so the enumeration's
            // group-mates already benefit from the proven optimum.
            let mut entries: BTreeMap<(usize, Option<usize>), Vec<usize>> = BTreeMap::new();
            for (idx, sub) in members {
                entries.entry((sub.k, sub.r)).or_default().push(idx);
            }
            groups.push(PlanGroup {
                options,
                entries: entries
                    .into_iter()
                    .map(|((k, r), indices)| PlanEntry { k, r, indices })
                    .collect(),
            });
        }
        Ok(BatchPlan {
            groups,
            total: subs.len(),
        })
    }

    /// Number of input sub-queries this plan answers.
    pub fn sub_queries(&self) -> usize {
        self.total
    }

    /// Number of searches the plan will actually run (post-dedup; memo
    /// hits at execution time may reduce it further).
    pub fn planned_solves(&self) -> usize {
        self.groups.iter().map(|g| g.entries.len()).sum()
    }
}

/// The answer to a [`Query::Batch`](crate::Query::Batch): one [`Outcome`]
/// per input sub-query (in input order), the batch's shared-work counters
/// and its wall-clock total.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-sub-query outcomes, indexed like the caller's input list.
    /// Deduplicated sub-queries share (clones of) one answer.
    pub outcomes: Vec<Outcome>,
    /// Sub-solves whose reducer was tightened to a lower-bound floor
    /// contributed by other sub-queries of this batch.
    pub batch_ctcp_shares: u64,
    /// Sub-solves seeded by a witness another sub-query of this batch
    /// produced (strictly better than anything the session already knew).
    pub batch_witness_seeds: u64,
    /// Sub-queries answered without a search of their own: in-batch
    /// duplicates fanned out plus proven-optimal memo hits.
    pub batch_memo_dedups: u64,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
}

impl BatchOutcome {
    /// The batch-level termination status: the most severe sub-query
    /// status (`Cancelled` > `TimedOut` > `NodeLimitReached` > `Optimal`),
    /// so a batch is `Optimal` only when every sub-query is.
    pub fn status(&self) -> Status {
        self.outcomes
            .iter()
            .map(|o| o.status)
            .fold(Status::Optimal, Status::max)
    }

    /// Total branch-and-bound nodes across all distinct searches. Memo
    /// answers and fan-out copies of deduplicated sub-queries carry
    /// `cache.result_memo_hit` and are excluded, so each search counts
    /// exactly once.
    pub fn total_nodes(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| !o.cache.result_memo_hit)
            .map(|o| o.stats.nodes)
            .sum()
    }
}

/// Executes a [`BatchPlan`] against one [`Session`]. Holds the batch-local
/// state the sweep accumulates: the best feasible witness per `k`, the
/// proven optimum sizes (pre-seeded from the session's result memo), the
/// shared deadline and the honest shared-work counters.
pub struct BatchExec<'a> {
    session: &'a Session,
    budget: &'a Budget,
    observer: Option<Arc<dyn Observer>>,
    trace: Option<kdc_obs::Tracer>,
    t0: Instant,
    deadline: Option<Instant>,
    /// Best feasible witness produced by this batch, per `k`. A witness
    /// for `k'` is feasible at every `k ≥ k'`.
    feasible: BTreeMap<usize, Vec<VertexId>>,
    /// Proven optimum sizes, per `k` (session memo + this batch's proven
    /// results); each caps later entries via the cross-`k` bound.
    proven: BTreeMap<usize, usize>,
    shares: u64,
    seeds: u64,
    dedups: u64,
}

impl<'a> BatchExec<'a> {
    /// A fresh executor over `session`, spending `budget` (the time limit
    /// is batch-wide; the node limit applies per sub-solve; cancellation
    /// aborts the whole batch as one unit).
    pub fn new(session: &'a Session, budget: &'a Budget) -> Self {
        let t0 = Instant::now();
        BatchExec {
            session,
            budget,
            observer: None,
            trace: None,
            t0,
            deadline: budget.time_limit.map(|d| t0 + d),
            feasible: BTreeMap::new(),
            proven: BTreeMap::new(),
            shares: 0,
            seeds: 0,
            dedups: 0,
        }
    }

    /// Streams [`Event`]s ([`Event::SubDone`] per sub-query plus the inner
    /// solves' incumbent/retighten/restart events) to `observer`.
    #[must_use]
    pub fn with_observer(mut self, observer: Option<Arc<dyn Observer>>) -> Self {
        self.observer = observer;
        self
    }

    /// Collects phase spans of the sub-solves into `trace`'s ring.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<kdc_obs::Tracer>) -> Self {
        self.trace = trace;
        self
    }

    /// Runs the plan to completion and returns the per-sub-query answers
    /// plus shared-work counters. Also folds the counters into the session
    /// counter block (and so the `kdc_session_batch_*` series).
    ///
    /// # Errors
    ///
    /// Fails only on invalid options (possible when the plan was built
    /// from an `Options` deserialized outside [`Options::preset`]);
    /// exhausted budgets come back as per-sub-query statuses.
    pub fn run(mut self, plan: &BatchPlan) -> Result<BatchOutcome, String> {
        for (k, size) in self.session.memoized_optimal_sizes() {
            self.proven.insert(k, size);
        }
        let mut outcomes: Vec<Option<Outcome>> = vec![None; plan.total];
        for group in &plan.groups {
            for entry in &group.entries {
                let outcome = self.run_entry(group, entry)?;
                self.dedups += (entry.indices.len() as u64).saturating_sub(1);
                for &idx in &entry.indices {
                    if let Some(obs) = &self.observer {
                        obs.event(&Event::SubDone {
                            index: idx,
                            k: entry.k,
                            size: outcome.size(),
                            status: outcome.status,
                        });
                    }
                    // Fan-out copies are marked as memo answers so that
                    // only the entry's primary copy counts as a search
                    // (see `BatchOutcome::total_nodes`).
                    let mut copy = outcome.clone();
                    if idx != entry.indices[0] {
                        copy.cache.result_memo_hit = true;
                    }
                    outcomes[idx] = Some(copy);
                }
            }
        }
        self.session
            .note_batch_shared_work(self.shares, self.seeds, self.dedups);
        Ok(BatchOutcome {
            // kdc-lint: allow(no_panic) — every input index belongs to
            // exactly one plan entry, so every slot was filled above.
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("plan covers every input index"))
                .collect(),
            batch_ctcp_shares: self.shares,
            batch_witness_seeds: self.seeds,
            batch_memo_dedups: self.dedups,
            elapsed: self.t0.elapsed(),
        })
    }

    /// Answers one plan entry (shared by all its duplicate input indices).
    fn run_entry(&mut self, group: &PlanGroup, entry: &PlanEntry) -> Result<Outcome, String> {
        // A raised cancel flag or an expired batch deadline short-circuits
        // the rest of the sweep with honest statuses: the best feasible
        // witness we can vouch for, never a fabricated `Optimal`.
        if self
            .budget
            .cancel
            .as_ref()
            .is_some_and(kdc::CancelFlag::is_cancelled)
        {
            return Ok(self.cut_short(entry.k, Status::Cancelled));
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(self.cut_short(entry.k, Status::TimedOut));
        }
        match entry.r {
            Some(r) => self.run_enumerate(group, entry.k, r),
            None => self.run_solve(group, entry.k),
        }
    }

    /// One maximum-solve entry. The sweep only plans (the shared reducer
    /// schedule, the cross-`k` seed and cap) and books (shared-work
    /// counters, feasible and proven witnesses); the solve itself is the
    /// session's one pipeline.
    fn run_solve(&mut self, group: &PlanGroup, k: usize) -> Result<Outcome, String> {
        // The shared-universe pass: the largest witness this batch has
        // produced at k' ≤ k. The floor never exceeds the seed below, so
        // the solver's `resident reducer lb ≤ initial lb` invariant holds
        // and the tightening only discards solutions the seed already
        // dominates.
        let floor = self
            .feasible
            .range(..=k)
            .map(|(_, w)| w.len())
            .filter(|&s| s > 0)
            .max();
        // Seed: the best feasible witness this batch produced at any
        // k' ≤ k, when it strictly beats the session's prior knowledge
        // (otherwise the pipeline seeds from the session as usual).
        let session_len = self.session.best_known(k).map_or(0, |w| w.len());
        let seed = self.batch_seed(k).filter(|w| w.len() > session_len);
        let batch_seeded = seed.is_some();
        // Cap: every proven optimum bounds this k. Backwards, optima are
        // monotone (`opt(k) ≤ opt(k0)` for `k ≤ k0`); forwards, removing a
        // vertex incident to a missing edge gives `opt(k) ≤ opt(k0) + (k −
        // k0)`. The cap is checked only against the incumbent — never used
        // for pruning — so the reported witness matches an uncapped run.
        let known_ub = self
            .proven
            .iter()
            .map(|(&k0, &s0)| if k >= k0 { s0 + (k - k0) } else { s0 })
            .min();
        let outcome = self.session.run_solve(
            k,
            &self.sub_budget(),
            &group.options,
            self.observer.clone(),
            self.trace.clone(),
            SweepHints {
                floor,
                seed,
                known_ub,
            },
        )?;
        // A memo answer ran no search of its own, so it shared nothing;
        // its witness still feeds the sweep.
        if outcome.cache.result_memo_hit {
            self.dedups += 1;
        } else {
            self.shares += u64::from(floor.is_some());
            self.seeds += u64::from(batch_seeded);
        }
        let witness = outcome.best().unwrap_or_default();
        if outcome.is_optimal() {
            self.note_proven(k, witness);
        } else {
            self.note_feasible(k, witness);
        }
        Ok(outcome)
    }

    /// One top-`r` enumeration entry: runs uncapped and unseeded (a
    /// precomputed bound would silently truncate the pool), but its best
    /// maximal clique still feeds the sweep as a feasible witness.
    fn run_enumerate(&mut self, group: &PlanGroup, k: usize, r: usize) -> Result<Outcome, String> {
        let outcome = self
            .session
            .run_top_r(k, r, false, &self.sub_budget(), &group.options)?;
        if let Some(best) = outcome.witnesses.iter().max_by_key(|w| w.len()) {
            self.note_feasible(k, best);
        }
        Ok(outcome)
    }

    /// The best feasible witness this batch produced at any `k' ≤ k`.
    fn batch_seed(&self, k: usize) -> Option<Vec<VertexId>> {
        self.feasible
            .range(..=k)
            .map(|(_, w)| w)
            .max_by_key(|w| w.len())
            .filter(|w| !w.is_empty())
            .cloned()
    }

    /// Records a batch-produced feasible witness for `k` (kept only when
    /// it beats the stored one).
    fn note_feasible(&mut self, k: usize, vertices: &[VertexId]) {
        if vertices.is_empty() {
            return;
        }
        let entry = self.feasible.entry(k).or_default();
        if vertices.len() > entry.len() {
            *entry = vertices.to_vec();
        }
    }

    /// Records a proven optimum for `k` (size bound + feasible witness).
    fn note_proven(&mut self, k: usize, vertices: &[VertexId]) {
        let size = vertices.len();
        let entry = self.proven.entry(k).or_insert(size);
        *entry = (*entry).min(size);
        self.note_feasible(k, vertices);
    }

    /// The per-sub-query budget: the batch node limit and cancel flag
    /// pass through, the time limit shrinks to whatever remains of the
    /// batch deadline (so a late sub-query times out honestly instead of
    /// restarting the clock).
    fn sub_budget(&self) -> Budget {
        let mut budget = self.budget.clone();
        if let Some(deadline) = self.deadline {
            budget.time_limit = Some(deadline.saturating_duration_since(Instant::now()));
        }
        budget
    }

    /// An honest answer for an entry the batch could not afford to run:
    /// the best witness the sweep can vouch for, under `status`.
    fn cut_short(&self, k: usize, status: Status) -> Outcome {
        let witness = self
            .batch_seed(k)
            .or_else(|| self.session.best_known(k))
            .unwrap_or_default();
        Outcome {
            witnesses: vec![witness],
            counts: None,
            status,
            stats: kdc::SearchStats::default(),
            cache: self.session.cache_info(),
            elapsed: Duration::ZERO,
        }
    }
}

impl Session {
    /// Answers a batch of sub-queries as one planned sweep. See the
    /// [module docs](self) for what is shared across the batch; see
    /// [`Session::run_batch_with`] for the observer-carrying variant.
    ///
    /// # Errors
    ///
    /// Fails on an empty batch or an invalid preset (validated before any
    /// work runs); solver-side limits come back as per-sub-query statuses
    /// in the [`BatchOutcome`].
    pub fn run_batch(
        &self,
        subs: &[SubQuery],
        budget: &Budget,
        options: &Options,
    ) -> Result<BatchOutcome, String> {
        self.run_batch_with(subs, budget, options, None)
    }

    /// [`Session::run_batch`], streaming [`Event`]s to `observer`: the
    /// inner solves' incumbent/retighten/restart events plus one
    /// [`Event::SubDone`] per input sub-query in completion order.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::run_batch`].
    pub fn run_batch_with(
        &self,
        subs: &[SubQuery],
        budget: &Budget,
        options: &Options,
        observer: Option<Arc<dyn Observer>>,
    ) -> Result<BatchOutcome, String> {
        self.run_batch_observed(subs, budget, options, observer, None)
    }

    /// [`Session::run_batch_with`] plus an optional [`kdc_obs::Tracer`]
    /// collecting the sub-solves' phase spans.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::run_batch`].
    pub fn run_batch_observed(
        &self,
        subs: &[SubQuery],
        budget: &Budget,
        options: &Options,
        observer: Option<Arc<dyn Observer>>,
        trace: Option<kdc_obs::Tracer>,
    ) -> Result<BatchOutcome, String> {
        let plan = BatchPlan::new(subs, options)?;
        BatchExec::new(self, budget)
            .with_observer(observer)
            .with_trace(trace)
            .run(&plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use kdc_graph::{gen, named};
    use std::sync::Mutex;

    fn sweep(hi: usize) -> Vec<SubQuery> {
        (0..=hi).map(SubQuery::solve).collect()
    }

    #[test]
    fn plan_groups_orders_and_dedups() {
        let subs = vec![
            SubQuery::solve(3),
            SubQuery::solve(1),
            SubQuery::solve(3),
            SubQuery::solve(2).with_preset("kdc_t"),
            SubQuery::solve(1).with_r(2),
        ];
        let plan = BatchPlan::new(&subs, &Options::default()).unwrap();
        assert_eq!(plan.sub_queries(), 5);
        assert_eq!(plan.planned_solves(), 4, "the duplicate k=3 merges");
        // Default group first, ascending k, solve before enumeration at
        // equal k; the kdc_t override forms its own group.
        assert_eq!(plan.groups.len(), 2);
        let keys: Vec<(usize, Option<usize>)> =
            plan.groups[0].entries.iter().map(|e| (e.k, e.r)).collect();
        assert_eq!(keys, vec![(1, None), (1, Some(2)), (3, None)]);
        assert_eq!(plan.groups[0].entries[2].indices, vec![0, 2]);
        assert_eq!(plan.groups[1].entries[0].k, 2);
    }

    #[test]
    fn plan_rejects_empty_bad_preset_and_zero_r() {
        let opts = Options::default();
        assert!(BatchPlan::new(&[], &opts).is_err());
        assert!(BatchPlan::new(&[SubQuery::solve(1).with_preset("nope")], &opts).is_err());
        assert!(BatchPlan::new(&[SubQuery::solve(1).with_r(0)], &opts).is_err());
    }

    #[test]
    fn batch_sweep_matches_individual_solves_and_shares_work() {
        let mut rng = gen::seeded_rng(77);
        let (g, _) = gen::planted_defective_clique(120, 10, 2, 0.05, &mut rng);
        let expected: Vec<Outcome> = (0..=3).map(|k| Session::new(g.clone()).solve(k)).collect();

        let session = Session::new(g);
        let batch = session
            .run_batch(&sweep(3), &Budget::default(), &Options::default())
            .unwrap();
        assert_eq!(batch.outcomes.len(), 4);
        assert_eq!(batch.status(), kdc::Status::Optimal);
        for (k, (got, want)) in batch.outcomes.iter().zip(&expected).enumerate() {
            assert_eq!(got.status, want.status, "k={k}");
            assert_eq!(got.witnesses, want.witnesses, "k={k} byte-identical");
        }
        assert!(
            batch.batch_ctcp_shares >= 1,
            "k>0 reducers saw batch bounds"
        );
        assert!(batch.batch_witness_seeds >= 1, "k>0 solves were seeded");
        let counters = session.counters();
        assert_eq!(counters.batch_ctcp_shares, batch.batch_ctcp_shares);
        assert_eq!(counters.batch_witness_seeds, batch.batch_witness_seeds);
        assert_eq!(counters.batch_memo_dedups, batch.batch_memo_dedups);
    }

    #[test]
    fn duplicates_and_memo_hits_are_deduplicated() {
        let session = Session::new(named::figure2());
        // Warm the memo at k=1, then batch k=1 twice plus k=2 twice.
        let warm = session.solve(1);
        assert!(warm.is_optimal());
        let subs = vec![
            SubQuery::solve(1),
            SubQuery::solve(1),
            SubQuery::solve(2),
            SubQuery::solve(2),
        ];
        let batch = session
            .run_batch(&subs, &Budget::default(), &Options::default())
            .unwrap();
        // k=1 answers from the memo (2 dedups: the hit plus its fan-out),
        // k=2 runs once and fans out (1 dedup).
        assert_eq!(batch.batch_memo_dedups, 3);
        assert_eq!(batch.outcomes[0].witnesses, batch.outcomes[1].witnesses);
        assert_eq!(batch.outcomes[2].witnesses, batch.outcomes[3].witnesses);
        assert!(batch.outcomes[0].cache.result_memo_hit);
        // Only one real search ran for the whole batch.
        assert_eq!(session.counters().solves, 2, "warm solve + k=2 only");
    }

    #[test]
    fn batch_streams_subdone_events_in_sweep_order() {
        let session = Session::new(named::figure2());
        let seen: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let subs = vec![SubQuery::solve(2), SubQuery::solve(0), SubQuery::solve(2)];
        let batch = session
            .run_batch_with(
                &subs,
                &Budget::default(),
                &Options::default(),
                Some(Arc::new(move |e: &Event| {
                    if let Event::SubDone { index, k, .. } = *e {
                        sink.lock().unwrap().push((index, k));
                    }
                })),
            )
            .unwrap();
        // Sweep order is ascending k; both duplicates of k=2 get their own
        // event, under their own input index.
        assert_eq!(*seen.lock().unwrap(), vec![(1, 0), (0, 2), (2, 2)]);
        assert_eq!(batch.outcomes[0].witnesses, batch.outcomes[2].witnesses);
    }

    #[test]
    fn cancelled_batch_reports_honest_statuses() {
        let flag = kdc::CancelFlag::new();
        flag.cancel();
        let session = Session::new(named::figure2());
        let batch = session
            .run_batch(
                &sweep(2),
                &Budget::default().with_cancel(flag),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(batch.status(), kdc::Status::Cancelled);
        assert!(batch
            .outcomes
            .iter()
            .all(|o| o.status == kdc::Status::Cancelled));
    }

    #[test]
    fn query_batch_folds_into_one_outcome() {
        let session = Session::new(named::figure2());
        let outcome = session
            .run(
                &Query::Batch(sweep(2)),
                &Budget::default(),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(outcome.witnesses.len(), 3, "one witness per sub-query");
        assert!(outcome.is_optimal());
        let sizes: Vec<usize> = outcome.witnesses.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![5, 5, 6], "figure2 optima for k=0,1,2");
    }
}
