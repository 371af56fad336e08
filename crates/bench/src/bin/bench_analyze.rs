//! Trace-analyzer throughput benchmark: MB/sec through
//! [`predvfs_obs::TraceAnalysis`]'s streaming reader.
//!
//! The input is a real merged trace — a traced 2-shard serve run over a
//! synthetic scenario — not a synthetic line generator, so the measured
//! rate includes the actual event mix (arrivals, slices, switches, job
//! completions, epoch metadata). The analyzer is fed through
//! `from_reader` on an in-memory buffer: the same streaming path `predvfs
//! analyze` uses for files, minus disk noise.
//!
//! Results land in `BENCH_analyze.json` (schema v1);
//! `analyze_mb_per_sec` is the gated metric.

#![forbid(unsafe_code)]

use predvfs_bench::bench_report::BenchReport;
use predvfs_bench::{best_of, quick};
use predvfs_faults::NullInjector;
use predvfs_obs::{NullSink, ObsSink, Recorder, TraceAnalysis};
use predvfs_serve::{ControllerKind, ServeRuntime};
use predvfs_shard::{merged_trace_jsonl, run_sharded, synth_scenario, ShardConfig, SynthSpec};
use predvfs_sim::{outln, TraceCache};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = quick();
    let streams = if quick { 1024 } else { 8192 };
    let reps = if quick { 3 } else { 7 };

    let spec = SynthSpec {
        streams,
        jobs_per_stream: 4,
        ..SynthSpec::new(streams)
    };
    eprintln!("preparing {streams} streams...");
    let scenario = synth_scenario(&spec);
    let runtime = ServeRuntime::prepare(&scenario, &TraceCache::new())?;
    let shards = 2;
    let recorders: Vec<Recorder> = (0..shards).map(|_| Recorder::new(1 << 22)).collect();
    let sinks: Vec<&dyn ObsSink> = recorders.iter().map(|r| r as &dyn ObsSink).collect();
    let config = ShardConfig {
        shards,
        force: Some(ControllerKind::Cached),
        lean: false,
        ..ShardConfig::default()
    };
    run_sharded(&runtime, &config, &sinks, &NullSink, &NullInjector)?;
    for r in &recorders {
        assert_eq!(r.ring().dropped(), 0, "trace ring overflow");
    }
    let jsonl = merged_trace_jsonl(
        &runtime,
        recorders.iter().map(|r| r.ring().snapshot()).collect(),
    );
    let bytes = jsonl.len();
    let lines = jsonl.lines().count();
    assert!(bytes > 0, "serve run produced an empty trace");
    eprintln!("trace: {lines} events, {:.2} MB", bytes as f64 / 1e6);

    let (best, analysis) = best_of(reps, || TraceAnalysis::from_reader(jsonl.as_bytes()));
    let analysis = analysis?;
    assert_eq!(
        analysis.streams.len(),
        streams,
        "analyzer lost streams: {} of {streams}",
        analysis.streams.len()
    );

    let mb_per_sec = bytes as f64 / 1e6 / best;
    let events_per_sec = lines as f64 / best;
    outln!(
        "analyzer: {:.2} MB in {best:.3}s -> {mb_per_sec:.1} MB/sec \
         ({events_per_sec:.0} events/sec)",
        bytes as f64 / 1e6
    );

    let mut report = BenchReport::new("analyze", quick);
    report
        .metric("analyze_mb_per_sec", mb_per_sec)
        .metric("analyze_events_per_sec", events_per_sec)
        .metric("trace_bytes_info", bytes as f64)
        .metric("trace_events_info", lines as f64)
        .notes(
            "Streaming TraceAnalysis::from_reader over an in-memory real \
             merged trace (2-shard traced serve run); best of several \
             passes, so the number is the parser+aggregation rate without \
             disk noise.",
        );
    let path = report.write_into(std::path::Path::new("."))?;
    outln!("wrote {}", path.display());
    Ok(())
}
