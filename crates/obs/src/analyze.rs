//! Offline analysis of serve-runtime JSONL traces.
//!
//! The serve engine emits one JSON object per event (see
//! [`crate::kinds`]); this module ingests that stream, reconstructs
//! per-job timelines, and renders a deterministic plain-text report:
//! per-stream slack quantiles, level residency, energy attribution, and
//! — the part a dashboard cannot do after the fact — **miss root-cause
//! classification**: every deadline miss is assigned exactly one cause
//! by a fixed precedence rule, so per-cause counts always sum to the
//! total misses. [`TraceAnalysis::to_perfetto`] additionally exports the
//! timelines as Chrome trace-event JSON for visual inspection in
//! Perfetto or `chrome://tracing`.
//!
//! Everything here is derived from the trace text alone (no shared state
//! with the engine), and every collection is keyed by `BTreeMap` or
//! sorted explicitly, so a given trace byte-produces one report. Lines
//! are read with [`crate::json::parse`] and the export is written with
//! its escaper and float writer, so every stream or fault name, however
//! awkward, survives into a file any JSON reader accepts.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::BufRead;

use crate::json::{self, Value};
use crate::kinds;
use crate::span;

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeError {
    /// 1-based line number of the offending event.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AnalyzeError {}

/// Parses one trace line: a flat JSON object (string / number / bool /
/// null values — the exact shape [`crate::TraceEvent::to_json`] emits).
/// Nested objects and arrays are rejected: the trace format is flat by
/// construction, and a reader that guesses would misattribute.
fn parse_line(line: &str) -> Result<Value, String> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    let fields = value.as_object().ok_or("not a JSON object")?;
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_)))
    {
        return Err(format!("nested value for key {key:?} (flat JSON only)"));
    }
    Ok(value)
}

/// Why a deadline miss happened, by fixed precedence (first match wins),
/// so every miss lands in exactly one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissCause {
    /// The stream was quarantined: service ran in safe mode at the
    /// nominal level, deliberately trading misses for containment.
    QuarantineSafeMode,
    /// A non-switch injected fault hit this job (trace spike, slice
    /// corruption/timeout, clock jitter, arrival burst, spurious done).
    InjectedFault,
    /// A level switch was rejected, stalled, retried, or abandoned while
    /// serving this job.
    SwitchStall,
    /// The job waited in the admission queue long enough that service
    /// alone would have met the deadline.
    QueueingDelay,
    /// The execution-time prediction under-shot (or the controller was
    /// in its degraded fallback) and the chosen level was too slow.
    Mispredict,
    /// None of the above explains the miss.
    Unattributed,
}

impl MissCause {
    /// All causes in precedence (and report) order.
    pub const ALL: [MissCause; 6] = [
        MissCause::QuarantineSafeMode,
        MissCause::InjectedFault,
        MissCause::SwitchStall,
        MissCause::QueueingDelay,
        MissCause::Mispredict,
        MissCause::Unattributed,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            MissCause::QuarantineSafeMode => "quarantine_safe_mode",
            MissCause::InjectedFault => "injected_fault",
            MissCause::SwitchStall => "switch_stall",
            MissCause::QueueingDelay => "queueing_delay",
            MissCause::Mispredict => "mispredict",
            MissCause::Unattributed => "unattributed",
        }
    }

    fn index(self) -> usize {
        MissCause::ALL
            .iter()
            .position(|&c| c == self)
            .expect("listed")
    }
}

/// One reconstructed job timeline.
#[derive(Debug, Clone)]
pub struct JobTimeline {
    /// Job index within its stream.
    pub job: u64,
    /// Arrival (admission) time, virtual seconds.
    pub arrival_s: f64,
    /// Completion time, virtual seconds.
    pub done_s: f64,
    /// Arrival-to-completion latency, seconds.
    pub response_s: f64,
    /// Time spent waiting in the admission queue, seconds.
    pub queue_s: f64,
    /// Relative deadline the job was served under, seconds.
    pub deadline_s: f64,
    /// Deadline slack (negative = missed), seconds.
    pub slack_s: f64,
    /// Whether the deadline was missed.
    pub missed: bool,
    /// Whether admission stretched the deadline.
    pub relaxed: bool,
    /// Whether the controller was in its degraded fallback.
    pub degraded: bool,
    /// Whether the deadline watchdog escalated the job mid-flight.
    pub escalated: bool,
    /// Whether the job ran in quarantine safe mode.
    pub safe_mode: bool,
    /// Level ordinal the job executed at.
    pub level: u64,
    /// Total job energy, picojoules.
    pub energy_pj: f64,
    /// Feature-slice share of the energy, picojoules.
    pub slice_pj: f64,
    /// Raw model prediction, cycles (absent in safe mode / PID).
    pub predicted_cycles: Option<f64>,
    /// Ground-truth cycles as served.
    pub actual_cycles: u64,
    /// Names of injected faults that fired on this job.
    pub faults: Vec<String>,
    /// Switch retries / abandons observed while serving this job.
    pub switch_events: u32,
    /// Root cause, populated for missed jobs.
    pub cause: Option<MissCause>,
}

impl JobTimeline {
    /// Applies the fixed-precedence classification. The if-else chain is
    /// the determinism argument: exactly one branch assigns.
    fn classify(&self) -> MissCause {
        let switch_fault = self
            .faults
            .iter()
            .any(|f| f == "switch_reject" || f == "switch_stall");
        let other_fault = self
            .faults
            .iter()
            .any(|f| f != "switch_reject" && f != "switch_stall");
        if self.safe_mode {
            MissCause::QuarantineSafeMode
        } else if other_fault {
            MissCause::InjectedFault
        } else if switch_fault || self.switch_events > 0 {
            MissCause::SwitchStall
        } else if self.queue_s > 0.0 && self.response_s - self.queue_s <= self.deadline_s {
            MissCause::QueueingDelay
        } else if self.degraded
            || self
                .predicted_cycles
                .is_some_and(|p| (self.actual_cycles as f64) > p)
        {
            MissCause::Mispredict
        } else {
            MissCause::Unattributed
        }
    }
}

/// Per-stream aggregation of a trace.
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// Stream name (the event scope).
    pub name: String,
    /// Arrivals observed.
    pub arrivals: usize,
    /// Jobs that completed service.
    pub jobs_done: usize,
    /// Completed jobs that missed their deadline.
    pub missed: usize,
    /// Arrivals dropped by the shed policy.
    pub shed: usize,
    /// Arrivals admitted with a stretched deadline.
    pub relaxed: usize,
    /// Injected faults that fired.
    pub faults: usize,
    /// Quarantine engagements.
    pub quarantines: usize,
    /// Total energy across completed jobs, picojoules.
    pub energy_pj: f64,
    /// Feature-slice share of that energy, picojoules.
    pub slice_pj: f64,
    /// Energy spent on jobs that went on to miss, picojoules.
    pub missed_energy_pj: f64,
    /// Miss counts by [`MissCause`] precedence order.
    pub cause_counts: [usize; 6],
    /// Completed-job timelines, job-ordered.
    pub jobs: Vec<JobTimeline>,
    /// `level → virtual seconds resident`, from switch events.
    pub residency_s: BTreeMap<u64, f64>,
    /// `level → completed jobs executed there`.
    pub level_jobs: BTreeMap<u64, usize>,
}

impl StreamSummary {
    /// Slack quantile over completed jobs by linear interpolation on the
    /// sorted samples (`None` when no jobs completed).
    pub fn slack_quantile(&self, q: f64) -> Option<f64> {
        let mut slack: Vec<f64> = self.jobs.iter().map(|j| j.slack_s).collect();
        if slack.is_empty() {
            return None;
        }
        slack.sort_by(|a, b| a.partial_cmp(b).expect("slack is finite"));
        let pos = q.clamp(0.0, 1.0) * (slack.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(slack[lo] + (slack[hi] - slack[lo]) * frac)
    }
}

/// A fully ingested trace, ready to report on.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    /// Per-stream summaries, name-sorted.
    pub streams: BTreeMap<String, StreamSummary>,
    /// Events ingested (excluding the truncation meta event).
    pub events: usize,
    /// Events the producer's ring evicted before export, if its
    /// `trace_truncated` meta event was present.
    pub truncated_dropped: Option<u64>,
    /// Latest event timestamp, virtual seconds.
    pub horizon_s: f64,
}

/// Per-stream transient state while ingesting.
#[derive(Debug, Default)]
struct StreamScratch {
    /// `job → arrival time` for jobs whose completion is pending.
    arrivals: BTreeMap<u64, f64>,
    /// `job → fault kind names` fired on that job.
    faults: BTreeMap<u64, Vec<String>>,
    /// `job → switch retry/abandon count`.
    switches: BTreeMap<u64, u32>,
    /// `(time, level)` change points for residency.
    level_points: Vec<(f64, u64)>,
    /// Level before the first recorded switch.
    initial_level: Option<u64>,
}

impl TraceAnalysis {
    /// Ingests a JSONL trace (one event object per line; blank lines are
    /// skipped).
    ///
    /// # Errors
    ///
    /// Returns the first malformed line. Unknown event kinds are ignored
    /// — forward compatibility — but a line that is not a flat JSON
    /// event object is an error, not a skip: silently dropping lines
    /// would corrupt every count downstream.
    pub fn from_jsonl(text: &str) -> Result<TraceAnalysis, AnalyzeError> {
        Self::from_reader(text.as_bytes())
    }

    /// Streaming variant of [`TraceAnalysis::from_jsonl`]: reads the
    /// trace line by line through one reused buffer, so resident memory
    /// tracks the analysis state (streams × jobs), not the file size —
    /// million-event traces ingest without ever holding the whole file.
    ///
    /// # Errors
    ///
    /// Same contract as [`TraceAnalysis::from_jsonl`]; an I/O failure is
    /// reported against the line at which the read stopped.
    pub fn from_reader<R: BufRead>(mut reader: R) -> Result<TraceAnalysis, AnalyzeError> {
        let ingest = span::span("analyze.ingest");
        let mut out = TraceAnalysis::default();
        let mut scratch: BTreeMap<String, StreamScratch> = BTreeMap::new();
        let mut line = String::new();
        let mut lineno = 0usize;
        loop {
            line.clear();
            lineno += 1;
            let n = reader.read_line(&mut line).map_err(|e| AnalyzeError {
                line: lineno,
                message: format!("read error: {e}"),
            })?;
            if n == 0 {
                break;
            }
            out.ingest_line(&mut scratch, lineno, line.trim_end_matches(['\r', '\n']))?;
        }
        drop(ingest);
        let _residency = span::span("analyze.residency");
        out.finish_residency(scratch);
        Ok(out)
    }

    /// Ingests one trace line (`lineno` is 1-based, for errors).
    fn ingest_line(
        &mut self,
        scratch: &mut BTreeMap<String, StreamScratch>,
        lineno: usize,
        line: &str,
    ) -> Result<(), AnalyzeError> {
        if line.trim().is_empty() {
            return Ok(());
        }
        {
            let event = parse_line(line).map_err(|message| AnalyzeError {
                line: lineno,
                message,
            })?;
            let err = |message: &str| AnalyzeError {
                line: lineno,
                message: message.to_owned(),
            };
            let num = |key| event.get(key).and_then(Value::as_f64);
            let int = |key| event.get(key).and_then(Value::as_u64);
            let text = |key| event.get(key).and_then(Value::as_str);
            let flag = |key| event.get(key).and_then(Value::as_bool).unwrap_or(false);
            let t_s = num("t_s").ok_or_else(|| err("missing t_s"))?;
            let scope = text("scope").ok_or_else(|| err("missing scope"))?;
            let kind = text("event").ok_or_else(|| err("missing event"))?;
            if kind == kinds::TRACE_TRUNCATED {
                let dropped = int("dropped").unwrap_or(0);
                self.truncated_dropped =
                    Some(self.truncated_dropped.unwrap_or(0).saturating_add(dropped));
                return Ok(());
            }
            self.events += 1;
            self.horizon_s = self.horizon_s.max(t_s);
            let stream = self
                .streams
                .entry(scope.to_owned())
                .or_insert_with(|| StreamSummary {
                    name: scope.to_owned(),
                    ..StreamSummary::default()
                });
            let sc = scratch.entry(scope.to_owned()).or_default();
            match kind {
                kinds::ARRIVAL => {
                    stream.arrivals += 1;
                    if let Some(job) = int("job") {
                        sc.arrivals.insert(job, t_s);
                    }
                }
                kinds::SHED => stream.shed += 1,
                kinds::RELAX => stream.relaxed += 1,
                kinds::FAULT => {
                    stream.faults += 1;
                    let fault = text("kind").ok_or_else(|| err("fault without kind"))?;
                    let job = int("job").ok_or_else(|| err("fault without job index"))?;
                    sc.faults.entry(job).or_default().push(fault.to_owned());
                }
                kinds::SWITCH_RETRY | kinds::SWITCH_FAILED => {
                    let job = int("job").ok_or_else(|| err("switch without job index"))?;
                    *sc.switches.entry(job).or_insert(0) += 1;
                }
                kinds::LEVEL_SWITCH | kinds::WATCHDOG_BOOST => {
                    if let (Some(from), Some(to)) = (int("from_level"), int("to_level")) {
                        if sc.initial_level.is_none() {
                            sc.initial_level = Some(from);
                        }
                        sc.level_points.push((t_s, to));
                    }
                    // A watchdog escalation also changes the level; the
                    // classification sees it through the job_done
                    // `escalated` flag, so nothing job-specific to track.
                }
                kinds::QUARANTINE if flag("engaged") => {
                    stream.quarantines += 1;
                }
                kinds::JOB_DONE => {
                    let job = int("job").ok_or_else(|| err("job_done without job index"))?;
                    let response_s =
                        num("response_s").ok_or_else(|| err("job_done without response_s"))?;
                    let slack_s = num("slack_s").ok_or_else(|| err("job_done without slack_s"))?;
                    // Older traces lack queue_s/deadline_s; derive what
                    // is derivable and default the rest conservatively.
                    let deadline_s = num("deadline_s").unwrap_or(response_s + slack_s);
                    let queue_s = num("queue_s").unwrap_or(0.0);
                    let arrival_s = sc.arrivals.remove(&job).unwrap_or(t_s - response_s);
                    let mut timeline = JobTimeline {
                        job,
                        arrival_s,
                        done_s: t_s,
                        response_s,
                        queue_s,
                        deadline_s,
                        slack_s,
                        missed: flag("missed"),
                        relaxed: flag("relaxed"),
                        degraded: flag("degraded"),
                        escalated: flag("escalated"),
                        safe_mode: flag("safe_mode"),
                        level: int("level").unwrap_or(0),
                        energy_pj: num("energy_pj").unwrap_or(0.0),
                        slice_pj: num("slice_pj").unwrap_or(0.0),
                        predicted_cycles: num("predicted_cycles"),
                        actual_cycles: int("actual_cycles").unwrap_or(0),
                        faults: sc.faults.remove(&job).unwrap_or_default(),
                        switch_events: sc.switches.remove(&job).unwrap_or(0),
                        cause: None,
                    };
                    stream.jobs_done += 1;
                    stream.energy_pj += timeline.energy_pj;
                    stream.slice_pj += timeline.slice_pj;
                    *stream.level_jobs.entry(timeline.level).or_insert(0) += 1;
                    if timeline.missed {
                        stream.missed += 1;
                        stream.missed_energy_pj += timeline.energy_pj;
                        let cause = timeline.classify();
                        timeline.cause = Some(cause);
                        stream.cause_counts[cause.index()] += 1;
                    }
                    stream.jobs.push(timeline);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Level residency: walks each stream's change points over
    /// `[0, horizon]` once ingestion is complete.
    fn finish_residency(&mut self, scratch: BTreeMap<String, StreamScratch>) {
        for (name, sc) in scratch {
            let stream = self.streams.get_mut(&name).expect("scratch implies stream");
            let start_level = sc
                .initial_level
                .or_else(|| stream.jobs.first().map(|j| j.level));
            let Some(start_level) = start_level else {
                continue;
            };
            let mut level = start_level;
            let mut t = 0.0f64;
            for &(at, to) in &sc.level_points {
                *stream.residency_s.entry(level).or_insert(0.0) += (at - t).max(0.0);
                level = to;
                t = at;
            }
            *stream.residency_s.entry(level).or_insert(0.0) += (self.horizon_s - t).max(0.0);
        }
    }

    /// Total deadline misses across streams.
    pub fn total_misses(&self) -> usize {
        self.streams.values().map(|s| s.missed).sum()
    }

    /// Renders the deterministic plain-text report.
    pub fn report(&self) -> String {
        let _span = span::span("analyze.report");
        let mut out = String::new();
        let _ = writeln!(out, "# trace analysis");
        let _ = writeln!(
            out,
            "events: {}  streams: {}  horizon_s: {:.6}",
            self.events,
            self.streams.len(),
            self.horizon_s
        );
        if let Some(dropped) = self.truncated_dropped {
            let _ = writeln!(
                out,
                "WARNING: trace truncated at the source ({dropped} events evicted); \
                 counts below undercount the full run"
            );
        }
        let total_misses = self.total_misses();
        let mut total_causes = [0usize; 6];
        for s in self.streams.values() {
            for (acc, c) in total_causes.iter_mut().zip(s.cause_counts.iter()) {
                *acc += c;
            }
        }
        let _ = writeln!(out, "\n## miss root causes (all streams)");
        let _ = writeln!(out, "misses: {total_misses}");
        for cause in MissCause::ALL {
            let _ = writeln!(
                out,
                "  {:<22} {}",
                cause.name(),
                total_causes[cause.index()]
            );
        }
        for s in self.streams.values() {
            let _ = writeln!(out, "\n## stream {}", s.name);
            let _ = writeln!(
                out,
                "arrivals: {}  done: {}  missed: {}  shed: {}  relaxed: {}  \
                 faults: {}  quarantines: {}",
                s.arrivals, s.jobs_done, s.missed, s.shed, s.relaxed, s.faults, s.quarantines
            );
            if let (Some(p50), Some(p95), Some(p99)) = (
                s.slack_quantile(0.5),
                s.slack_quantile(0.05),
                s.slack_quantile(0.01),
            ) {
                // Slack is "good when high": the tail quantiles of
                // interest are the *low* ones (worst 5 % / 1 %).
                let _ = writeln!(
                    out,
                    "slack_s: p50={p50:.6}  worst5%={p95:.6}  worst1%={p99:.6}"
                );
            }
            let _ = writeln!(
                out,
                "energy_pj: total={:.3}  slice={:.3} ({:.1}%)  on_missed={:.3} ({:.1}%)",
                s.energy_pj,
                s.slice_pj,
                percent(s.slice_pj, s.energy_pj),
                s.missed_energy_pj,
                percent(s.missed_energy_pj, s.energy_pj),
            );
            if !s.residency_s.is_empty() {
                let total: f64 = s.residency_s.values().sum();
                let _ = writeln!(out, "level residency:");
                for (level, dwell) in &s.residency_s {
                    let _ = writeln!(
                        out,
                        "  level {:<3} {:>12.6}s  {:>5.1}%  jobs {}",
                        level,
                        dwell,
                        percent(*dwell, total),
                        s.level_jobs.get(level).copied().unwrap_or(0)
                    );
                }
            }
            if s.missed > 0 {
                let _ = writeln!(out, "miss causes:");
                for cause in MissCause::ALL {
                    let n = s.cause_counts[cause.index()];
                    if n > 0 {
                        let _ = writeln!(out, "  {:<22} {n}", cause.name());
                    }
                }
                let missed_jobs: Vec<String> = s
                    .jobs
                    .iter()
                    .filter(|j| j.missed)
                    .map(|j| {
                        format!(
                            "job {} t={:.6} cause={}",
                            j.job,
                            j.done_s,
                            j.cause.map_or("?", MissCause::name)
                        )
                    })
                    .collect();
                for line in missed_jobs {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        out
    }

    /// Exports the reconstructed timelines as Chrome trace-event JSON
    /// (the format Perfetto and `chrome://tracing` load): one complete
    /// (`ph:"X"`) slice per job on its stream's track, plus instant
    /// events for faults and alert edges. Timestamps are microseconds of
    /// virtual time.
    pub fn to_perfetto(&self) -> String {
        let _span = span::span("analyze.perfetto");
        // Three decimals: nanoseconds of virtual time, femtojoules.
        let milli = |v: f64| (v * 1e3).round() / 1e3;
        let mut out = String::from("{\"traceEvents\":[");
        for (tid, stream) in self.streams.values().enumerate() {
            let tid = tid + 1;
            // Every stream opens with its track name, so only the first
            // event of the document goes without a comma.
            if tid > 1 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":"
            );
            json::write_str(&mut out, &stream.name);
            out.push_str("}}");
            for job in &stream.jobs {
                let cat = if job.missed { "miss" } else { "ok" };
                let _ = write!(
                    out,
                    ",{{\"name\":\"job {}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":",
                    job.job
                );
                json::write_f64(&mut out, milli(job.arrival_s * 1e6));
                out.push_str(",\"dur\":");
                json::write_f64(&mut out, milli(job.response_s * 1e6));
                let _ = write!(
                    out,
                    ",\"pid\":0,\"tid\":{tid},\"args\":{{\"missed\":{},\"level\":{},\"energy_pj\":",
                    job.missed, job.level
                );
                json::write_f64(&mut out, milli(job.energy_pj));
                if let Some(cause) = job.cause {
                    let _ = write!(out, ",\"cause\":\"{}\"", cause.name());
                }
                out.push_str("}}");
                for fault in &job.faults {
                    out.push_str(",{\"name\":");
                    json::write_str(&mut out, fault);
                    out.push_str(",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":");
                    json::write_f64(&mut out, milli(job.arrival_s * 1e6));
                    let _ = write!(out, ",\"pid\":0,\"tid\":{tid},\"s\":\"t\"}}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

fn percent(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn done(
        t: f64,
        scope: &str,
        job: u64,
        missed: bool,
        queue_s: f64,
        deadline_s: f64,
    ) -> TraceEvent {
        let response_s = queue_s + 0.001; // queue wait plus 1 ms service
        TraceEvent::new(t, scope, kinds::JOB_DONE)
            .with_u64("job", job)
            .with_f64("response_s", response_s)
            .with_f64("queue_s", queue_s)
            .with_f64("deadline_s", deadline_s)
            .with_f64("slack_s", deadline_s - response_s)
            .with_bool("missed", missed)
            .with_bool("relaxed", false)
            .with_bool("degraded", false)
            .with_u64("level", 2)
            .with_f64("volts", 0.8)
            .with_f64("energy_pj", 10.0)
            .with_f64("slice_pj", 1.0)
            .with_u64("actual_cycles", 1000)
    }

    fn jsonl(events: &[TraceEvent]) -> String {
        let mut out = String::new();
        for e in events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    #[test]
    fn parser_round_trips_event_json() {
        let e = TraceEvent::new(1.5, "sha", "job_done")
            .with_u64("job", 3)
            .with_f64("slack_s", -2.5e-3)
            .with_bool("missed", true)
            .with_str("note", "a\"b\\c");
        let v = parse_line(&e.to_json()).unwrap();
        assert_eq!(v.get("t_s").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("scope").and_then(Value::as_str), Some("sha"));
        assert_eq!(v.get("job").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("slack_s").and_then(Value::as_f64), Some(-2.5e-3));
        assert_eq!(v.get("missed").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("note").and_then(Value::as_str), Some("a\"b\\c"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"k\":").is_err());
        assert!(parse_line("{\"k\":[1]}").is_err());
        assert!(parse_line("[1]").is_err());
        let nest = format!("{{\"k\":{}", "[".repeat(100_000));
        for (text, line) in [("{\"broken\"\n".to_owned(), 1), (format!("\n{nest}\n"), 2)] {
            let analysis = TraceAnalysis::from_jsonl(&text);
            assert_eq!(analysis.unwrap_err().line, line);
        }
        // A required job index must be a non-negative integer; an
        // optional one that is not reads as absent.
        let arrival = "{\"t_s\":0,\"scope\":\"s\",\"event\":\"arrival\",\"job\":-1}\n";
        assert!(TraceAnalysis::from_jsonl(arrival).is_ok());
        for job in ["-1", "-1.7", "0.5", "\"0\""] {
            let done = format!(
                "{{\"t_s\":1,\"scope\":\"s\",\"event\":\"job_done\",\"job\":{job},\
                 \"response_s\":1,\"slack_s\":0}}\n"
            );
            let err = TraceAnalysis::from_jsonl(&format!("{arrival}{done}")).unwrap_err();
            assert_eq!(err.line, 2, "job {job}");
            assert!(err.message.contains("job index"), "job {job}: {err}");
        }
    }

    #[test]
    fn classification_precedence_is_exhaustive_and_exclusive() {
        let mk = |safe_mode, faults: &[&str], switches, queue_s, degraded| JobTimeline {
            job: 0,
            arrival_s: 0.0,
            done_s: 0.02,
            response_s: 0.02,
            queue_s,
            deadline_s: 0.0167,
            slack_s: 0.0167 - 0.02,
            missed: true,
            relaxed: false,
            degraded,
            escalated: false,
            safe_mode,
            level: 0,
            energy_pj: 0.0,
            slice_pj: 0.0,
            predicted_cycles: Some(100.0),
            actual_cycles: 200,
            faults: faults.iter().map(|s| (*s).to_owned()).collect(),
            switch_events: switches,
            cause: None,
        };
        // Safe mode beats everything, even co-occurring faults.
        assert_eq!(
            mk(true, &["trace_spike"], 1, 0.01, true).classify(),
            MissCause::QuarantineSafeMode
        );
        assert_eq!(
            mk(false, &["trace_spike"], 1, 0.01, true).classify(),
            MissCause::InjectedFault
        );
        assert_eq!(
            mk(false, &["switch_reject"], 0, 0.01, true).classify(),
            MissCause::SwitchStall
        );
        assert_eq!(
            mk(false, &[], 2, 0.01, true).classify(),
            MissCause::SwitchStall
        );
        // Queueing: service alone (0.02 − 0.01 = 0.01) fits the 0.0167
        // deadline, so the wait is what killed it.
        assert_eq!(
            mk(false, &[], 0, 0.01, false).classify(),
            MissCause::QueueingDelay
        );
        // No queue, actual above predicted: the model under-shot.
        assert_eq!(
            mk(false, &[], 0, 0.0, false).classify(),
            MissCause::Mispredict
        );
        let mut covered = mk(false, &[], 0, 0.0, false);
        covered.predicted_cycles = Some(300.0);
        assert_eq!(covered.classify(), MissCause::Unattributed);
    }

    #[test]
    fn per_class_counts_sum_to_total_misses() {
        let events = vec![
            TraceEvent::new(0.0, "sha", kinds::ARRIVAL).with_u64("job", 0),
            TraceEvent::new(0.001, "sha", kinds::FAULT)
                .with_str("kind", "trace_spike")
                .with_u64("job", 0),
            done(0.02, "sha", 0, true, 0.0, 0.0167),
            TraceEvent::new(0.02, "sha", kinds::ARRIVAL).with_u64("job", 1),
            done(0.06, "sha", 1, true, 0.025, 0.0167),
            TraceEvent::new(0.06, "sha", kinds::ARRIVAL).with_u64("job", 2),
            done(0.08, "sha", 2, false, 0.0, 0.0167),
            TraceEvent::new(0.0, "md", kinds::ARRIVAL).with_u64("job", 0),
            done(0.03, "md", 0, true, 0.0, 0.0167),
        ];
        let a = TraceAnalysis::from_jsonl(&jsonl(&events)).unwrap();
        assert_eq!(a.total_misses(), 3);
        let class_sum: usize = a.streams.values().flat_map(|s| s.cause_counts.iter()).sum();
        assert_eq!(
            class_sum,
            a.total_misses(),
            "every miss has exactly one class"
        );
        let sha = &a.streams["sha"];
        assert_eq!(sha.cause_counts[MissCause::InjectedFault.index()], 1);
        assert_eq!(sha.cause_counts[MissCause::QueueingDelay.index()], 1);
        assert_eq!(sha.jobs_done, 3);
        assert_eq!(sha.missed, 2);
    }

    #[test]
    fn report_is_deterministic_and_notes_truncation() {
        let mut events = vec![
            TraceEvent::new(0.0, "sha", kinds::ARRIVAL).with_u64("job", 0),
            done(0.02, "sha", 0, true, 0.0, 0.0167),
        ];
        events.push(
            TraceEvent::new(0.02, "trace", kinds::TRACE_TRUNCATED)
                .with_u64("dropped", 7)
                .with_u64("kept", 2),
        );
        let text = jsonl(&events);
        let a = TraceAnalysis::from_jsonl(&text).unwrap();
        let b = TraceAnalysis::from_jsonl(&text).unwrap();
        assert_eq!(a.report(), b.report());
        assert_eq!(a.truncated_dropped, Some(7));
        assert!(a.report().contains("WARNING: trace truncated"));
        assert_eq!(a.events, 2, "meta event is not a real event");
    }

    #[test]
    fn level_residency_covers_the_horizon() {
        let events = vec![
            TraceEvent::new(0.0, "sha", kinds::ARRIVAL).with_u64("job", 0),
            TraceEvent::new(0.25, "sha", kinds::LEVEL_SWITCH)
                .with_u64("from_level", 3)
                .with_u64("to_level", 1),
            done(0.5, "sha", 0, false, 0.0, 1.0),
            TraceEvent::new(0.75, "sha", kinds::LEVEL_SWITCH)
                .with_u64("from_level", 1)
                .with_u64("to_level", 3),
            TraceEvent::new(1.0, "sha", kinds::ARRIVAL).with_u64("job", 1),
            done(1.0, "sha", 1, false, 0.0, 1.0),
        ];
        let a = TraceAnalysis::from_jsonl(&jsonl(&events)).unwrap();
        let r = &a.streams["sha"].residency_s;
        assert!(
            (r[&3] - 0.5).abs() < 1e-12,
            "0-0.25 and 0.75-1.0 at level 3"
        );
        assert!((r[&1] - 0.5).abs() < 1e-12, "0.25-0.75 at level 1");
        let total: f64 = r.values().sum();
        assert!((total - a.horizon_s).abs() < 1e-12);
    }

    #[test]
    fn perfetto_export_is_json_with_one_slice_per_job() {
        let plain = vec![
            TraceEvent::new(0.0, "sha", kinds::ARRIVAL).with_u64("job", 0),
            done(0.02, "sha", 0, true, 0.0, 0.0167),
        ];
        // Names that need escaping must survive the export.
        let awkward = vec![
            TraceEvent::new(0.0, "cam\"1", kinds::ARRIVAL).with_u64("job", 0),
            TraceEvent::new(0.001, "cam\"1", kinds::FAULT)
                .with_str("kind", "trace \"spike\"\n")
                .with_u64("job", 0),
            done(0.02, "cam\"1", 0, true, 0.0, 0.0167),
            TraceEvent::new(0.0, "back\\slash", kinds::ARRIVAL).with_u64("job", 0),
            done(0.01, "back\\slash", 0, false, 0.0, 0.0167),
        ];
        for events in [plain, awkward] {
            let a = TraceAnalysis::from_jsonl(&jsonl(&events)).unwrap();
            let p = a.to_perfetto();
            let doc = json::parse(&p).unwrap_or_else(|e| panic!("{e}: {p}"));
            let items = doc.get("traceEvents").and_then(Value::as_array).unwrap();
            let ph = |want: &'static str| {
                items
                    .iter()
                    .filter(move |e| e.get("ph").and_then(Value::as_str) == Some(want))
            };
            let jobs: usize = a.streams.values().map(|s| s.jobs.len()).sum();
            assert_eq!(ph("X").count(), jobs);
            let tracks: Vec<&str> = ph("M")
                .filter_map(|e| e.get("args")?.get("name")?.as_str())
                .collect();
            assert_eq!(
                tracks,
                a.streams.keys().map(String::as_str).collect::<Vec<_>>()
            );
            let faults: Vec<&str> = ph("i").filter_map(|e| e.get("name")?.as_str()).collect();
            let want: Vec<&str> = a
                .streams
                .values()
                .flat_map(|s| {
                    s.jobs
                        .iter()
                        .flat_map(|j| j.faults.iter().map(String::as_str))
                })
                .collect();
            assert_eq!(faults, want);
            assert!(p.contains("\"cat\":\"miss\""));
        }
    }
}
