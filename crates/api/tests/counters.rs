//! The session counter block against its process-wide series.
//!
//! This file is its own test binary, hence its own process, and holds one
//! test function: the global observability kill switch and the
//! `kdc_session_*_total` series are process-wide, so nothing else may run
//! between the samples taken here.

use kdc_api::{Budget, Options, Query, Session, SessionCounters, SubQuery};
use kdc_graph::named;

/// Drives every session counter at least once across two fresh sessions:
/// a cold solve, a memo hit, a resumed reducer, a `k = 0..=2` batch whose
/// reducers evict each other (`with_ctcp_capacity(1)`), and a state import
/// into a session whose memo holds one entry. Returns both sessions'
/// counters.
fn exercise() -> [SessionCounters; 2] {
    let session = Session::new(named::figure2()).with_ctcp_capacity(1);
    let budget = Budget::default();
    assert!(!session.solve(2).cache.result_memo_hit, "cold solve");
    assert!(session.solve(2).cache.result_memo_hit, "memo hit");
    let resumed = session
        .run(
            &Query::Solve { k: 2 },
            &budget,
            &Options::preset("kdbb").unwrap(),
        )
        .unwrap();
    assert!(resumed.cache.ctcp_resumed, "same rules resume the reducer");
    let subs: Vec<SubQuery> = (0..=2).map(SubQuery::solve).collect();
    let batch = session
        .run_batch(&subs, &budget, &Options::default())
        .unwrap();
    assert_eq!(batch.status(), kdc::Status::Optimal);

    let recovered = Session::new(named::figure2()).with_memo_capacity(1);
    let (witnesses, memos) = recovered.import_state(&session.export_state());
    assert!(witnesses > 0 && memos > 1, "{witnesses} {memos}");
    [session.counters(), recovered.counters()]
}

/// Per-field sums over sessions, in `SessionCounters::fields` order.
fn sums(counters: &[SessionCounters]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = counters[0].fields().to_vec();
    for c in &counters[1..] {
        for (slot, (_, v)) in out.iter_mut().zip(c.fields()) {
            slot.1 += v;
        }
    }
    out
}

/// The current value of every `kdc_session_<field>_total` series.
fn series() -> Vec<u64> {
    SessionCounters::default()
        .fields()
        .iter()
        .map(|(name, _)| {
            kdc_obs::registry()
                .register_counter(&format!("kdc_session_{name}_total"))
                .get()
        })
        .collect()
}

#[test]
fn session_counters_and_series_move_together() {
    // Kill switch off: the sessions still count everything, the series
    // stay where they were.
    kdc_obs::set_enabled(false);
    let before = series();
    let disabled = sums(&exercise());
    kdc_obs::set_enabled(true);
    for (name, value) in &disabled {
        assert!(*value > 0, "{name} did not move with observability off");
    }
    assert_eq!(series(), before, "disabled series must not move");

    // Kill switch on: each series moves by exactly its fields' total.
    let before = series();
    let enabled = sums(&exercise());
    assert_eq!(enabled, disabled, "the switch must not change what counts");
    for (((name, value), b), a) in enabled.iter().zip(&before).zip(series()) {
        assert_eq!(a - b, *value, "kdc_session_{name}_total");
    }
}
