//! Bounded structured event tracing.
//!
//! A [`TraceEvent`] is a timestamped, named event with typed key/value
//! fields; a [`TraceRing`] keeps the most recent `capacity` events and
//! counts what it had to drop. Events render as JSON lines with fields in
//! insertion order, so a producer that emits from a serial loop (the
//! serve engine) gets byte-identical output for identical runs.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::json;

/// A typed trace-event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered shortest-roundtrip; non-finite renders as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on export).
    Str(String),
}

/// One structured event: a virtual-clock timestamp, the scope it belongs
/// to (stream or component name), the event kind, and ordered fields.
///
/// Kinds and field keys are `&'static str`: every producer names them
/// with literals (usually the [`crate::kinds`] constants), so the hot
/// path allocates only for the scope and any dynamic string values —
/// not for the event's own structure.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp, seconds.
    pub t_s: f64,
    /// Emitting scope (e.g. the stream name).
    pub scope: String,
    /// Event kind (e.g. `arrival`, `job_done`).
    pub kind: &'static str,
    /// Ordered key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// An event with no payload fields.
    pub fn new(t_s: f64, scope: &str, kind: &'static str) -> TraceEvent {
        TraceEvent {
            t_s,
            scope: scope.to_owned(),
            kind,
            fields: Vec::new(),
        }
    }

    /// Appends an unsigned-integer field.
    #[must_use]
    pub fn with_u64(mut self, key: &'static str, value: u64) -> TraceEvent {
        self.fields.push((key, FieldValue::U64(value)));
        self
    }

    /// Appends a float field.
    #[must_use]
    pub fn with_f64(mut self, key: &'static str, value: f64) -> TraceEvent {
        self.fields.push((key, FieldValue::F64(value)));
        self
    }

    /// Appends a boolean field.
    #[must_use]
    pub fn with_bool(mut self, key: &'static str, value: bool) -> TraceEvent {
        self.fields.push((key, FieldValue::Bool(value)));
        self
    }

    /// Appends a string field.
    #[must_use]
    pub fn with_str(mut self, key: &'static str, value: &str) -> TraceEvent {
        self.fields.push((key, FieldValue::Str(value.to_owned())));
        self
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.fields.len());
        self.write_json(&mut out);
        out
    }

    /// Appends the event's JSON rendering to `out` — the allocation-free
    /// path bulk exporters use so one buffer serves the whole trace.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t_s\":");
        json::write_f64(out, self.t_s);
        out.push_str(",\"scope\":");
        json::write_str(out, &self.scope);
        out.push_str(",\"event\":");
        json::write_str(out, self.kind);
        for (key, value) in &self.fields {
            out.push(',');
            json::write_str(out, key);
            out.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => json::write_f64(out, *v),
                FieldValue::Bool(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::Str(v) => json::write_str(out, v),
            }
        }
        out.push('}');
    }
}

/// Merges per-source event streams (each internally ordered) into one
/// globally ordered stream.
///
/// `rank` maps an event to its merge rank — typically the global index
/// of the stream named by its scope — or `None` to exclude the event
/// (source-local meta events, coordinator chatter). The merge sorts
/// **stably** by `(t_s, rank)`: events of one scope at one instant keep
/// their source order, so as long as each scope's events at any single
/// timestamp come from a single source, the merged order is independent
/// of how scopes were distributed across sources. This is the property
/// the sharded serve tier's trace-determinism contract rests on.
pub fn merge_events<F>(sources: Vec<Vec<TraceEvent>>, mut rank: F) -> Vec<TraceEvent>
where
    F: FnMut(&TraceEvent) -> Option<u64>,
{
    let mut ranked: Vec<(u64, TraceEvent)> = sources
        .into_iter()
        .flatten()
        .filter_map(|e| rank(&e).map(|r| (r, e)))
        .collect();
    ranked.sort_by(|a, b| a.1.t_s.total_cmp(&b.1.t_s).then_with(|| a.0.cmp(&b.0)));
    ranked.into_iter().map(|(_, e)| e).collect()
}

struct RingInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring of [`TraceEvent`]s keeping the most recent `capacity`.
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        // Push-only state: a snapshot from a panicked pusher is intact.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, event: TraceEvent) {
        let mut inner = self.lock();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Renders the buffered events as JSON lines (one event per line,
    /// each line terminated by `\n`), oldest first.
    ///
    /// When events were evicted, a final `trace_truncated` meta event is
    /// appended so downstream analyzers know the head of the timeline is
    /// missing instead of silently computing statistics over a hole.
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(inner.events.len() * 96);
        for event in &inner.events {
            event.write_json(&mut out);
            out.push('\n');
        }
        if inner.dropped > 0 {
            let t_s = inner.events.back().map_or(0.0, |e| e.t_s);
            let meta = TraceEvent::new(t_s, "trace", crate::kinds::TRACE_TRUNCATED)
                .with_u64("dropped", inner.dropped)
                .with_u64("kept", inner.events.len() as u64);
            meta.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_renders_fields_in_order() {
        let e = TraceEvent::new(0.5, "sha", "job_done")
            .with_u64("job", 3)
            .with_f64("energy_pj", 1.25)
            .with_bool("missed", true)
            .with_str("note", "a\"b");
        assert_eq!(
            e.to_json(),
            "{\"t_s\":0.5,\"scope\":\"sha\",\"event\":\"job_done\",\
             \"job\":3,\"energy_pj\":1.25,\"missed\":true,\"note\":\"a\\\"b\"}"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let e = TraceEvent::new(f64::NAN, "x", "k")
            .with_f64("v", f64::INFINITY)
            .with_f64("w", f64::NEG_INFINITY);
        assert_eq!(
            e.to_json(),
            "{\"t_s\":null,\"scope\":\"x\",\"event\":\"k\",\"v\":null,\"w\":null}"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        let e = TraceEvent::new(0.0, "a\nb", "k").with_str("v", "\tc\u{1}\r\\é");
        assert_eq!(
            e.to_json(),
            "{\"t_s\":0,\"scope\":\"a\\nb\",\"event\":\"k\",\"v\":\"\\tc\\u0001\\r\\\\é\"}"
        );
    }

    #[test]
    fn merge_orders_by_time_then_rank_stably() {
        let a = vec![
            TraceEvent::new(1.0, "s0", "x").with_u64("n", 0),
            TraceEvent::new(1.0, "s0", "x").with_u64("n", 1),
            TraceEvent::new(2.0, "s0", "x"),
        ];
        let b = vec![
            TraceEvent::new(1.0, "s1", "x"),
            TraceEvent::new(1.5, "meta", "x"),
            TraceEvent::new(1.5, "s1", "x"),
        ];
        let merged = merge_events(vec![b, a], |e| match e.scope.as_str() {
            "s0" => Some(0),
            "s1" => Some(1),
            _ => None,
        });
        let got: Vec<(f64, &str)> = merged.iter().map(|e| (e.t_s, e.scope.as_str())).collect();
        assert_eq!(
            got,
            vec![
                (1.0, "s0"),
                (1.0, "s0"),
                (1.0, "s1"),
                (1.5, "s1"),
                (2.0, "s0")
            ],
            "meta scope excluded; ties ordered by rank; same-scope order kept"
        );
        // Stability within (t, rank): the two s0 events at t=1 keep
        // their source order.
        assert_eq!(merged[0].fields[0].1, FieldValue::U64(0));
        assert_eq!(merged[1].fields[0].1, FieldValue::U64(1));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let ring = TraceRing::new(2);
        for i in 0..5 {
            ring.push(TraceEvent::new(i as f64, "s", "e"));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<f64> = ring.snapshot().iter().map(|e| e.t_s).collect();
        assert_eq!(kept, vec![3.0, 4.0], "oldest events are evicted first");
        let jsonl = ring.to_jsonl();
        assert_eq!(
            jsonl.lines().count(),
            3,
            "truncation must append a meta event"
        );
        let last = jsonl.lines().last().unwrap();
        assert!(last.contains("\"event\":\"trace_truncated\""));
        assert!(last.contains("\"dropped\":3"));
        assert!(last.contains("\"kept\":2"));
    }

    #[test]
    fn untruncated_export_has_no_meta_event() {
        let ring = TraceRing::new(4);
        ring.push(TraceEvent::new(0.0, "s", "e"));
        let jsonl = ring.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(!jsonl.contains("trace_truncated"));
    }
}
