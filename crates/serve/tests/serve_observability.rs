//! The observability layer's contracts at the serve surface:
//!
//! 1. **Trace determinism** — the JSONL rendering of the event trace is
//!    byte-identical across worker-thread counts (events are emitted only
//!    from the serial event loop, stamped with the virtual clock).
//! 2. **Metrics consistency** — counters and histograms agree with the
//!    run's own accounting (`StreamResult`).
//! 3. **Empty-test-set regression** — a benchmark that generates no test
//!    jobs surfaces as [`ServeError::InvalidSpec`], not a
//!    modulo-by-zero panic inside the parallel fan-out.
//! 4. **One name per stream** — traces and metrics label a stream by its
//!    name, so a scenario that names two streams alike is
//!    [`ServeError::InvalidSpec`] instead of streams that overwrite each
//!    other's series.

use predvfs_accel::{by_name, WorkloadSize, Workloads};
use predvfs_obs::{ObsSink, Recorder};
use predvfs_serve::{Scenario, ServeError, ServeResult, ServeRuntime, StreamSpec};
use predvfs_sim::{Platform, TraceCache};

/// Runs the demo scenario under `threads` workers, recording into a
/// fresh [`Recorder`], and returns the result plus the recorder.
fn run_recorded(threads: usize) -> (ServeResult, Recorder) {
    let recorder = Recorder::new(1 << 16);
    let result = predvfs_par::with_threads(threads, || {
        let scenario = Scenario::demo();
        let runtime =
            ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("demo scenario prepares");
        runtime.run_observed(None, &recorder).expect("run")
    });
    (result, recorder)
}

#[test]
fn trace_jsonl_is_byte_identical_across_thread_counts() {
    let (res1, rec1) = run_recorded(1);
    let (res8, rec8) = run_recorded(8);
    assert_eq!(res1, res8, "results must be thread-count invariant");
    let jsonl1 = rec1.ring().to_jsonl();
    let jsonl8 = rec8.ring().to_jsonl();
    assert!(!jsonl1.is_empty(), "the demo run must produce events");
    assert_eq!(rec1.ring().dropped(), 0, "ring must not overflow");
    assert_eq!(
        jsonl1, jsonl8,
        "trace output must be byte-identical for 1 vs 8 worker threads"
    );
}

#[test]
fn events_and_metrics_agree_with_accounting() {
    let (result, recorder) = run_recorded(4);
    let jsonl = recorder.ring().to_jsonl();
    let count = |needle: &str| jsonl.matches(needle).count();

    let completed: usize = result.streams.iter().map(|s| s.completed()).sum();
    let submitted: usize = result.streams.iter().map(|s| s.submitted).sum();
    let shed: usize = result.streams.iter().map(|s| s.shed).sum();
    let relaxed: usize = result.streams.iter().map(|s| s.relaxed).sum();
    assert_eq!(count("\"event\":\"job_done\""), completed);
    assert_eq!(count("\"event\":\"arrival\""), submitted);
    assert_eq!(count("\"event\":\"shed\""), shed);
    assert_eq!(count("\"event\":\"relax\""), relaxed);
    assert!(count("\"event\":\"level_switch\"") > 0);
    assert!(count("\"event\":\"slice_done\"") > 0);
    // The demo's drifted adaptive stream must engage the fallback and
    // land at least one refit.
    assert!(count("\"event\":\"drift_fallback\"") > 0);
    assert!(count("\"event\":\"refit\"") > 0);

    let counters = recorder.registry().counters();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(counter("predvfs_serve_arrivals_total"), submitted as u64);
    assert_eq!(counter("predvfs_serve_jobs_done_total"), completed as u64);
    assert_eq!(counter("predvfs_serve_shed_total"), shed as u64);
    assert_eq!(counter("predvfs_serve_relaxed_total"), relaxed as u64);
    let misses: usize = result.streams.iter().map(|s| s.misses()).sum();
    assert_eq!(counter("predvfs_serve_misses_total"), misses as u64);

    // Histograms: one observation per completed job, sums matching the
    // run's own energy accounting.
    let hists = recorder.registry().histogram_summaries();
    let hist = |name: &str| {
        hists
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, c, s)| (*c, *s))
            .expect(name)
    };
    let (n_energy, sum_energy) = hist("predvfs_serve_energy_pj");
    assert_eq!(n_energy, completed as u64);
    let total_energy: f64 = result.streams.iter().map(|s| s.total_energy_pj()).sum();
    assert!((sum_energy - total_energy).abs() <= 1e-6 * total_energy.abs());
    let (n_resp, _) = hist("predvfs_serve_response_seconds");
    assert_eq!(n_resp, completed as u64);

    // The exporters must render without panicking and carry the data.
    let prom = recorder.registry().prometheus_text();
    assert!(prom.contains("predvfs_serve_jobs_done_total"));
    assert!(prom.contains("predvfs_serve_energy_pj_bucket"));
}

#[test]
fn shed_pct_counts_dropped_arrivals() {
    let (result, _) = run_recorded(2);
    let overloaded = result
        .streams
        .iter()
        .find(|s| s.shed > 0)
        .expect("demo must shed");
    assert!(overloaded.shed_pct() > 0.0);
    assert!(
        (overloaded.shed_pct() - 100.0 * overloaded.shed as f64 / overloaded.submitted as f64)
            .abs()
            < 1e-12
    );
    // Shed arrivals never complete, so they are invisible to miss_pct's
    // denominator — the documented distinction the helper exists for.
    assert!(overloaded.completed() + overloaded.shed <= overloaded.submitted);
    let quiet = result
        .streams
        .iter()
        .find(|s| s.shed == 0)
        .expect("demo has an unshed stream");
    assert_eq!(quiet.shed_pct(), 0.0);
}

/// `sha`'s workloads with the test set emptied out — the degenerate
/// generator output that used to panic with a modulo by zero.
fn empty_test_workloads(seed: u64, size: WorkloadSize) -> Workloads {
    let mut w = (by_name("sha").expect("sha registered").workloads)(seed, size);
    w.test.clear();
    w
}

#[test]
fn empty_test_set_is_invalid_spec_not_a_panic() {
    let mut bench = by_name("sha").expect("sha registered");
    bench.workloads = empty_test_workloads;
    let scenario = Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams: vec![StreamSpec::new(bench)],
        faults: None,
    };
    match ServeRuntime::prepare(&scenario, &TraceCache::new()) {
        Err(ServeError::InvalidSpec { stream, msg }) => {
            assert_eq!(stream, "sha");
            assert!(msg.contains("empty test set"), "got {msg:?}");
        }
        Ok(_) => panic!("empty test set must be rejected"),
        Err(other) => panic!("expected InvalidSpec, got {other}"),
    }
}

#[test]
fn duplicate_stream_names_are_invalid_spec() {
    let scenario = Scenario::parse("stream sha\nstream md\nstream sha controller=pid\n")
        .expect("the parser accepts the lines one by one");
    match ServeRuntime::prepare(&scenario, &TraceCache::new()) {
        Err(ServeError::InvalidSpec { stream, msg }) => {
            assert_eq!(stream, "sha");
            assert!(msg.contains("same name"), "got {msg:?}");
        }
        Ok(_) => panic!("two streams named sha must be rejected"),
        Err(other) => panic!("expected InvalidSpec, got {other}"),
    }
}

#[test]
fn null_sink_run_matches_plain_run() {
    let cache = TraceCache::new();
    let scenario = Scenario::demo();
    let runtime = ServeRuntime::prepare(&scenario, &cache).expect("prepare");
    let plain = runtime.run().expect("plain run");
    let observed = runtime
        .run_observed(None, &predvfs_obs::NullSink)
        .expect("observed run");
    assert_eq!(
        plain, observed,
        "observability off must not perturb results"
    );
    let recorder = Recorder::new(1 << 16);
    let recorded = runtime.run_observed(None, &recorder).expect("recorded run");
    assert_eq!(
        plain, recorded,
        "observability on must not perturb results either"
    );
    assert!(recorder.enabled());
}
