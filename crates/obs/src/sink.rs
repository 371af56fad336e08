//! The [`ObsSink`] trait, the recording implementation, and the
//! process-wide sink used by components too deep to thread a sink
//! through (the trainer, the trace cache).

use std::sync::{Arc, OnceLock};

use crate::registry::{Histogram, MetricsRegistry};
use crate::ring::{TraceEvent, TraceRing};

/// Where instrumentation points send their observations.
///
/// Every method defaults to a no-op, so `impl ObsSink for NullSink {}`
/// is the whole disabled path; instrumented code should guard any
/// payload *construction* (string formatting, event building) behind
/// [`ObsSink::enabled`], which is the single branch the hot path pays
/// when observability is off.
pub trait ObsSink: Sync {
    /// Whether observations are recorded at all. Callers may skip
    /// building payloads when this is false.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the counter named `name`.
    fn counter_add(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge named `name`.
    fn gauge_set(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Adds `delta` to the counter series `name{labels}`.
    fn counter_add_with(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let _ = (name, labels, delta);
    }

    /// Sets the gauge series `name{labels}`.
    fn gauge_set_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = (name, labels, value);
    }

    /// Records `value` into the histogram named `name`.
    fn observe(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Appends a structured trace event.
    fn emit(&self, event: TraceEvent) {
        let _ = event;
    }
}

/// The disabled sink: drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ObsSink for NullSink {}

/// A recording sink: a [`MetricsRegistry`] plus a bounded [`TraceRing`].
pub struct Recorder {
    registry: MetricsRegistry,
    ring: TraceRing,
}

impl Recorder {
    /// A recorder whose trace ring holds `trace_capacity` events.
    pub fn new(trace_capacity: usize) -> Recorder {
        Recorder {
            registry: MetricsRegistry::new(),
            ring: TraceRing::new(trace_capacity),
        }
    }

    /// The metrics half.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The tracing half.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }
}

impl ObsSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.registry.counter(name).add(delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    fn counter_add_with(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.registry.counter_with(name, labels).add(delta);
    }

    fn gauge_set_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.registry.gauge_with(name, labels).set(value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.registry
            .histogram(name, &Histogram::default_bounds())
            .observe(value);
    }

    fn emit(&self, event: TraceEvent) {
        self.ring.push(event);
    }
}

static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();
static NULL: NullSink = NullSink;

/// Installs `recorder` as the process-wide sink. Returns false (leaving
/// the existing sink in place) if one was already installed.
pub fn install(rec: Arc<Recorder>) -> bool {
    GLOBAL.set(rec).is_ok()
}

/// The process-wide sink: the installed [`Recorder`], or a no-op until
/// [`install`] is called. Costs one atomic load plus one branch.
pub fn global() -> &'static dyn ObsSink {
    match GLOBAL.get() {
        Some(rec) => rec.as_ref(),
        None => &NULL,
    }
}

/// The installed recorder, if any (for exporters).
pub fn recorder() -> Option<&'static Arc<Recorder>> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.counter_add("c", 1);
        sink.emit(TraceEvent::new(0.0, "s", "e"));
        // Nothing to assert beyond "does not panic": there is no state.
    }

    #[test]
    fn recorder_routes_all_channels() {
        let rec = Recorder::new(8);
        assert!(rec.enabled());
        rec.counter_add("jobs_total", 2);
        rec.gauge_set("objective", 0.5);
        rec.counter_add_with("stream_jobs_total", &[("stream", "sha")], 3);
        rec.gauge_set_with("burn", &[("stream", "sha")], 1.5);
        rec.observe("slack_seconds", 1e-3);
        rec.emit(TraceEvent::new(1.0, "sha", "arrival"));
        assert_eq!(rec.registry().counter("jobs_total").get(), 2);
        assert_eq!(rec.registry().gauge("objective").get(), 0.5);
        assert_eq!(
            rec.registry()
                .counter_with("stream_jobs_total", &[("stream", "sha")])
                .get(),
            3
        );
        assert_eq!(
            rec.registry()
                .gauge_with("burn", &[("stream", "sha")])
                .get(),
            1.5
        );
        let summaries = rec.registry().histogram_summaries();
        assert!(summaries
            .iter()
            .any(|(n, c, _)| n == "slack_seconds" && *c == 1));
        assert_eq!(rec.ring().len(), 1);
    }

    #[test]
    fn global_defaults_to_noop() {
        // Installation is covered by the CLI integration path; this test
        // only pins the uninstalled default (tests share the process, so
        // installing here would leak into other tests).
        if recorder().is_none() {
            assert!(!global().enabled());
        }
    }
}
