//! The chaos harness's contracts:
//!
//! 1. **Chaos determinism** — an identical scenario + fault-plan seed
//!    yields byte-identical trace JSONL (and identical results) across
//!    `--threads 1` and `--threads 8`: fault draws are pure functions of
//!    `(seed, site, stream, job, attempt)`, never of event order.
//! 2. **Degradation pays for itself** — under a standard fault plan the
//!    miss rate with watchdog + retries + quarantine enabled is strictly
//!    lower than with all degradation disabled.
//! 3. **Spurious completions are contained** — a completion interrupt
//!    with no job in flight (the state that used to panic the event
//!    loop) is counted, traced, and quarantined while every real job
//!    still completes.
//! 4. **Equivalence** — `run_chaos` with no faults and no degradation is
//!    exactly the plain run.

use predvfs_accel::{by_name, WorkloadSize};
use predvfs_faults::{FaultConfig, FaultPlan, NullInjector};
use predvfs_obs::{NullSink, Recorder};
use predvfs_serve::{Scenario, ServeResult, ServeRuntime, StreamSpec};
use predvfs_sim::{Experiment, ExperimentConfig, Platform, TraceCache};

/// Runs the demo scenario under the standard fault mix with `threads`
/// workers, recording the trace.
fn run_chaos_recorded(threads: usize) -> (ServeResult, Recorder) {
    let recorder = Recorder::new(1 << 16);
    let plan = FaultPlan::new(7, FaultConfig::standard());
    let result = predvfs_par::with_threads(threads, || {
        let scenario = Scenario::demo();
        let runtime =
            ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("demo scenario prepares");
        runtime
            .run_chaos(None, &recorder, &plan, true)
            .expect("chaos run")
    });
    (result, recorder)
}

#[test]
fn chaos_trace_is_byte_identical_across_threads() {
    let (r1, rec1) = run_chaos_recorded(1);
    let (r8, rec8) = run_chaos_recorded(8);
    assert_eq!(r1, r8, "chaos results must be thread-count invariant");
    let j1 = rec1.ring().to_jsonl();
    let j8 = rec8.ring().to_jsonl();
    assert_eq!(rec1.ring().dropped(), 0, "ring must not overflow");
    assert!(
        j1.contains("\"event\":\"fault\""),
        "the standard plan must fire at least one fault"
    );
    assert!(
        r1.streams.iter().map(|s| s.faults).sum::<usize>() > 0,
        "fault accounting must see the fired faults"
    );
    assert_eq!(
        j1, j8,
        "chaos trace must be byte-identical for 1 vs 8 worker threads"
    );
}

/// A stream of `bench` with its deadline sized to `headroom ×` the
/// benchmark's largest nominal job, arrivals spaced to avoid queueing —
/// misses then measure per-job service quality only.
fn headroom_stream(name: &str, headroom: f64, jobs: usize, cache: &TraceCache) -> StreamSpec {
    let bench = by_name(name).expect("benchmark registered");
    let mut probe_cfg = ExperimentConfig::paper_default(Platform::Asic);
    probe_cfg.size = WorkloadSize::Quick;
    let probe = Experiment::prepare_cached(bench, probe_cfg, cache).expect("probe prepares");
    let (max_ms, _, _) = probe.exec_time_stats_ms();
    let mut spec = StreamSpec::new(bench);
    spec.deadline_s = headroom * max_ms * 1e-3;
    spec.period_s = 2.0 * spec.deadline_s;
    spec.jobs = jobs;
    spec
}

#[test]
fn degradation_strictly_reduces_misses_under_faults() {
    let cache = TraceCache::new();
    let scenario = Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams: vec![
            headroom_stream("sha", 2.5, 80, &cache),
            headroom_stream("md", 2.5, 80, &cache),
        ],
        faults: None,
    };
    let runtime = ServeRuntime::prepare(&scenario, &cache).expect("prepare");
    // Transient spikes that undefended levels cannot absorb, plus
    // rejected switches that strand streams at stale levels.
    let mut config = FaultConfig::none();
    config.set("trace_spike", "0.35:1.5").unwrap();
    config.set("switch_reject", "0.25").unwrap();
    let plan = FaultPlan::new(7, config);

    let baseline = runtime
        .run_chaos(None, &NullSink, &plan, false)
        .expect("baseline run");
    let hardened = runtime
        .run_chaos(None, &NullSink, &plan, true)
        .expect("hardened run");

    let misses = |r: &ServeResult| r.streams.iter().map(|s| s.misses()).sum::<usize>();
    let completed = |r: &ServeResult| r.streams.iter().map(|s| s.completed()).sum::<usize>();
    let miss_pct = |r: &ServeResult| 100.0 * misses(r) as f64 / completed(r) as f64;
    assert_eq!(
        completed(&baseline),
        completed(&hardened),
        "arrivals are identical, so both runs must serve the same jobs"
    );
    assert!(
        misses(&baseline) > 0,
        "the fault plan must cause misses when undefended"
    );
    assert!(
        miss_pct(&hardened) < miss_pct(&baseline),
        "degradation machinery must strictly reduce the miss rate: \
         {:.2}% (enabled) vs {:.2}% (disabled)",
        miss_pct(&hardened),
        miss_pct(&baseline)
    );
    assert!(
        hardened
            .streams
            .iter()
            .map(|s| s.escalations)
            .sum::<usize>()
            > 0,
        "the watchdog must have escalated at least one job"
    );
    assert_eq!(
        hardened
            .streams
            .iter()
            .map(|s| s.internal_errors)
            .sum::<usize>(),
        0,
        "escalation epochs must never surface as internal errors"
    );
    assert_eq!(
        baseline
            .streams
            .iter()
            .map(|s| s.escalations)
            .sum::<usize>(),
        0,
        "disabled degradation must not escalate"
    );
}

#[test]
fn spurious_done_is_contained_not_a_panic() {
    let cache = TraceCache::new();
    let mut spec = StreamSpec::new(by_name("sha").expect("sha registered"));
    spec.jobs = 20;
    spec.period_s = 2.0 * spec.deadline_s; // idle gaps between jobs
    let scenario = Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams: vec![spec],
        faults: None,
    };
    let runtime = ServeRuntime::prepare(&scenario, &cache).expect("prepare");
    let mut config = FaultConfig::none();
    config.set("spurious_done", "1").unwrap();
    let plan = FaultPlan::new(3, config);
    let recorder = Recorder::new(1 << 14);
    // This is the regression for the `in_flight.take().expect(...)`
    // panic: every completion is followed by a phantom completion at the
    // same epoch, which the idle stream must contain, not die on.
    let result = runtime
        .run_chaos(None, &recorder, &plan, true)
        .expect("spurious completions must not fail the run");
    let s = &result.streams[0];
    assert_eq!(
        s.completed(),
        s.submitted,
        "every real job must still complete"
    );
    assert!(s.internal_errors > 0, "phantom completions must be counted");
    assert!(s.quarantines >= 1, "containment must quarantine the stream");
    let jsonl = recorder.ring().to_jsonl();
    assert!(jsonl.contains("\"event\":\"internal_error\""));
    assert!(jsonl.contains("\"event\":\"quarantine\""));
    assert!(jsonl.contains("\"reason\":\"probe_recover\""));
}

#[test]
fn null_chaos_matches_plain_run() {
    let scenario = Scenario::demo();
    let runtime = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
    let plain = runtime.run().expect("plain run");
    let chaos = runtime
        .run_chaos(None, &NullSink, &NullInjector, false)
        .expect("null chaos run");
    assert_eq!(
        plain, chaos,
        "no faults + no degradation must be exactly the plain run"
    );
}
