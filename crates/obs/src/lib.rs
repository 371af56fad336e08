//! # predvfs-obs
//!
//! The observability layer of the predvfs stack: a lightweight,
//! dependency-free metrics registry (counters, gauges, fixed-bucket
//! histograms) and a bounded structured event ring for deterministic
//! tracing, both behind the [`ObsSink`] trait whose default
//! implementation is a no-op, so instrumented hot paths pay a single
//! branch when observability is off; and hierarchical span profiling
//! ([`span`](mod@span)), the one mechanism that times phases.
//!
//! ## Design
//!
//! * **Metrics** ([`MetricsRegistry`]) are lock-free atomics keyed by
//!   name in sorted maps, exported as Prometheus text
//!   ([`MetricsRegistry::prometheus_text`]). Counter and histogram
//!   updates are order-insensitive, so parallel stages (experiment
//!   preparation, scheme fan-out) may record freely.
//! * **Traces** ([`TraceRing`]) are bounded rings of structured
//!   [`TraceEvent`]s exported as JSON lines
//!   ([`TraceRing::to_jsonl`]). Producers that need *deterministic*
//!   traces (the serve engine) only emit from their serial event loop and
//!   stamp events with the **virtual** clock, so the JSONL output is
//!   byte-identical regardless of worker-thread count.
//! * **JSON** ([`json`]) is the workspace's one JSON module: the string
//!   escaper and float writer every JSON writer renders through, and
//!   the depth-limited parser that reads traces ([`analyze`]) and BENCH
//!   reports back.
//! * **Sinks** ([`ObsSink`]) decouple instrumentation points from the
//!   backing store. [`NullSink`] drops everything; [`Recorder`] combines
//!   a registry and a ring. Deep components (the FISTA solver's caller,
//!   the trace cache) reach the process-wide sink through [`global`],
//!   which costs one atomic load plus one branch until a recorder is
//!   [`install`]ed.
//! * **Spans** ([`span()`]) time phases: a scoped guard per phase,
//!   aggregated into one process-wide [`SelfProfile`] whose collapsed
//!   stacks feed flamegraphs. Its per-name totals
//!   ([`SelfProfile::totals`]) are what the metrics export reports as
//!   `predvfs_span_calls_total` and `predvfs_span_seconds`
//!   ([`MetricsRegistry::record_span_totals`]). Off by default: a
//!   disabled span is one relaxed atomic load.
//!
//! ```
//! use predvfs_obs::{ObsSink, Recorder, TraceEvent};
//!
//! let rec = Recorder::new(1024);
//! rec.counter_add("predvfs_jobs_total", 1);
//! rec.observe("predvfs_slack_seconds", 3.2e-3);
//! rec.emit(
//!     TraceEvent::new(0.0167, "sha", "job_done")
//!         .with_u64("job", 0)
//!         .with_bool("missed", false),
//! );
//! assert!(rec.registry().prometheus_text().contains("predvfs_jobs_total 1"));
//! assert!(rec.ring().to_jsonl().contains("\"event\":\"job_done\""));
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod kinds;
mod registry;
mod ring;
mod sink;
pub mod span;

pub use analyze::{AnalyzeError, JobTimeline, MissCause, StreamSummary, TraceAnalysis};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use ring::{merge_events, FieldValue, TraceEvent, TraceRing};
pub use sink::{global, install, recorder, NullSink, ObsSink, Recorder};
pub use span::{
    profiling_enabled, record_virtual, set_profiling, span, SelfProfile, SpanDomain, SpanGuard,
    SpanTotal,
};

/// The process-wide [`SelfProfile`] (re-export of [`span::profile`]).
pub fn self_profile() -> &'static SelfProfile {
    span::profile()
}
