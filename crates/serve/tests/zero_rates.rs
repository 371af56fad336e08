//! Regression: rate accessors on empty denominators.
//!
//! A stream that admits zero jobs (everything shed, or a zero-job
//! spec) used to make `miss_pct` / `shed_pct` return NaN, which then
//! poisoned every aggregate it touched (sorting, SLO math, JSON
//! output). The contract is 0.0, never NaN.

use predvfs_serve::{ServeResult, StreamResult};

fn empty_stream() -> StreamResult {
    StreamResult {
        name: "empty".to_owned(),
        submitted: 0,
        done: 0,
        missed: 0,
        energy_pj: 0.0,
        records: Vec::new(),
        shed: 0,
        relaxed: 0,
        refits: 0,
        faults: 0,
        escalations: 0,
        quarantines: 0,
        internal_errors: 0,
    }
}

#[test]
fn zero_done_stream_rates_are_zero_not_nan() {
    let s = empty_stream();
    assert_eq!(s.miss_pct(), 0.0);
    assert_eq!(s.shed_pct(), 0.0);
    assert!(s.miss_pct().is_finite());
    assert!(s.shed_pct().is_finite());
}

#[test]
fn all_shed_stream_rates_stay_finite() {
    // Every arrival shed: submitted > 0 but nothing ever completed.
    let mut s = empty_stream();
    s.submitted = 5;
    s.shed = 5;
    assert_eq!(s.miss_pct(), 0.0, "no completions -> no miss rate");
    assert_eq!(s.shed_pct(), 100.0);
}

#[test]
fn empty_result_aggregates_are_zero_not_nan() {
    let empty = ServeResult {
        streams: vec![],
        horizon_s: 0.0,
        events: 0,
    };
    assert_eq!(empty.miss_pct(), 0.0);
    assert_eq!(empty.shed_pct(), 0.0);

    let zeroed = ServeResult {
        streams: vec![empty_stream(), empty_stream()],
        horizon_s: 0.0,
        events: 0,
    };
    assert_eq!(zeroed.miss_pct(), 0.0);
    assert_eq!(zeroed.shed_pct(), 0.0);
    assert_eq!(zeroed.total_energy_pj(), 0.0);
}
