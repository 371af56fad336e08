//! SLO and calibration analytics at the serve surface:
//!
//! 1. **Conservation** — the offline analyzer's per-stream job and miss
//!    counts match the engine's own [`StreamResult`] accounting, and the
//!    per-cause miss counts sum exactly to the misses (every miss is
//!    classified exactly once).
//! 2. **Labeled export** — per-stream labeled counters and the
//!    calibration/SLO gauges appear in the Prometheus text with values
//!    that agree with the run.
//! 3. **Thread invariance** — the analyzer's report is byte-identical
//!    across worker-thread counts, because the trace it ingests is.

use predvfs_accel::{by_name, WorkloadSize};
use predvfs_faults::{FaultConfig, FaultPlan};
use predvfs_obs::{Recorder, TraceAnalysis};
use predvfs_serve::{Scenario, ServeResult, ServeRuntime, StreamSpec};
use predvfs_sim::{Experiment, ExperimentConfig, Platform, TraceCache};

/// A stream with its deadline sized to `headroom ×` the benchmark's
/// largest nominal job (same construction as the chaos figures).
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

fn chaos_scenario(cache: &TraceCache) -> Scenario {
    Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams: vec![
            headroom_stream("sha", 2.5, 80, cache),
            headroom_stream("md", 2.5, 80, cache),
        ],
        faults: None,
    }
}

fn chaos_plan() -> FaultPlan {
    let mut config = FaultConfig::none();
    config.set("trace_spike", "0.35:1.5").unwrap();
    config.set("switch_reject", "0.25").unwrap();
    FaultPlan::new(7, config)
}

/// One undefended chaos run (degradation off, so the plan's faults
/// surface as misses), recorded and analyzed.
fn run_analyzed() -> (ServeResult, Recorder, TraceAnalysis) {
    let cache = TraceCache::new();
    let scenario = chaos_scenario(&cache);
    let runtime = ServeRuntime::prepare(&scenario, &cache).expect("prepare");
    let recorder = Recorder::new(1 << 16);
    let result = runtime
        .run_chaos(None, &recorder, &chaos_plan(), false)
        .expect("chaos run");
    assert_eq!(recorder.ring().dropped(), 0, "ring must not overflow");
    let analysis = TraceAnalysis::from_jsonl(&recorder.ring().to_jsonl()).expect("trace parses");
    (result, recorder, analysis)
}

#[test]
fn analyzer_conserves_engine_accounting() {
    let (result, _, analysis) = run_analyzed();
    let engine_misses: usize = result.streams.iter().map(|s| s.misses()).sum();
    assert!(engine_misses > 0, "undefended chaos must miss");
    assert_eq!(analysis.total_misses(), engine_misses);
    for s in &result.streams {
        let summary = analysis.streams.get(&s.name).expect("stream in trace");
        assert_eq!(summary.jobs_done, s.completed(), "{}: job count", s.name);
        assert_eq!(summary.missed, s.misses(), "{}: miss count", s.name);
        assert_eq!(
            summary.cause_counts.iter().sum::<usize>(),
            s.misses(),
            "{}: every miss classified exactly once",
            s.name
        );
        assert_eq!(
            summary.jobs.len(),
            s.completed(),
            "{}: one timeline per job",
            s.name
        );
    }
}

#[test]
fn labeled_series_agree_with_the_run() {
    let (result, recorder, _) = run_analyzed();
    let counters = recorder.registry().counters();
    let counter = |series: &str| {
        counters
            .iter()
            .find(|(n, _)| n == series)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing series {series}"))
    };
    for s in &result.streams {
        assert_eq!(
            counter(&format!(
                "predvfs_serve_stream_jobs_done_total{{stream=\"{}\"}}",
                s.name
            )),
            s.completed() as u64
        );
        assert_eq!(
            counter(&format!(
                "predvfs_serve_stream_misses_total{{stream=\"{}\"}}",
                s.name
            )),
            s.misses() as u64
        );
    }
    // Calibration and burn-rate gauges are (re)set on every completion,
    // so each stream must have a current labeled value in the export.
    let prom = recorder.registry().prometheus_text();
    for s in &result.streams {
        for gauge in [
            "predvfs_calibration_coverage",
            "predvfs_calibration_underpred_rate",
            "predvfs_slo_burn_fast",
            "predvfs_slo_burn_slow",
        ] {
            let series = format!("{gauge}{{stream=\"{}\"}}", s.name);
            assert!(prom.contains(&series), "missing {series}");
        }
    }
    // Coverage is a rate: every exported value must be in [0, 1].
    for (name, v) in recorder.registry().gauges() {
        if name.starts_with("predvfs_calibration_coverage") {
            assert!((0.0..=1.0).contains(&v), "{name} = {v}");
        }
    }
}

#[test]
fn analysis_report_is_thread_count_invariant() {
    let report_for = |threads: usize| {
        predvfs_par::with_threads(threads, || {
            let cache = TraceCache::new();
            let scenario = chaos_scenario(&cache);
            let runtime = ServeRuntime::prepare(&scenario, &cache).expect("prepare");
            let recorder = Recorder::new(1 << 16);
            runtime
                .run_chaos(None, &recorder, &chaos_plan(), true)
                .expect("chaos run");
            TraceAnalysis::from_jsonl(&recorder.ring().to_jsonl())
                .expect("trace parses")
                .report()
        })
    };
    let r1 = report_for(1);
    let r8 = report_for(8);
    assert!(!r1.is_empty());
    assert_eq!(
        r1, r8,
        "analysis report must be byte-identical for 1 vs 8 worker threads"
    );
}
