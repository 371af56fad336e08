//! The deterministic discrete-event service runtime.
//!
//! [`ServeRuntime::prepare`] trains and slices each stream's accelerator
//! (fanned out with [`predvfs_par`], trace simulation deduplicated by the
//! shared [`TraceCache`], and identical (benchmark, seed) classes
//! trained exactly once and shared); [`ServeRuntime::run`] then
//! runs each class's slice over the test jobs its streams submit, in one
//! parallel pass, and advances a virtual clock over arrival / slice-done
//! / level-switch / job-done events in a single serial loop. Parallelism
//! lives entirely in preparation and that warm-up, whose outputs are
//! bit-identical regardless of thread count, so the whole pipeline is
//! deterministic: same scenario, same result, any `--threads`.
//!
//! Each stream slot keeps its own few pending events in a `StreamQueue`
//! (`queue.rs`), earliest first, ties in push order, and each arrival
//! schedules only its successor. Streams never interact inside the loop,
//! so the engine only chooses which stream's next event runs next:
//!
//! * the single engine pops time-major: [`ShardEngine::run_until`] keeps
//!   the slots in a binary heap on their first event's time, one entry
//!   per slot, and always runs the earliest, the lowest slot on ties. Its
//!   slots are the global stream ids, so its sink sees the events in the
//!   merged trace's `(t_s, stream id)` order;
//! * with [`EngineConfig::one_ahead_arrivals`], the sharded posture,
//!   [`ShardEngine::run_until`] runs the streams one after another, each
//!   to the epoch's end. A stream's own events pop in the same order
//!   either way; only the interleaving across streams changes.
//!
//! ## Observability
//!
//! [`ServeRuntime::run_observed`] threads a [`predvfs_obs::ObsSink`]
//! through the engine: every service-level transition (arrival, shed,
//! relax, slice-done, level-switch, job-done, drift-fallback, refit)
//! becomes a structured trace event stamped with the **virtual** clock,
//! and per-job slack, response time, queue depth, and energy land in
//! histograms. Because all events are emitted from the serial event loop
//! with virtual timestamps, the trace is bit-deterministic across worker
//! thread counts — the `serve_observability` integration test pins the
//! JSONL output byte-for-byte between `--threads 1` and `--threads 8`.
//!
//! ## Fault injection and graceful degradation
//!
//! [`ServeRuntime::run_chaos`] additionally threads a
//! [`predvfs_faults::FaultInjector`] and the degradation switch
//! ([`EngineConfig::degrade`]) through the loop. The injector perturbs
//! the simulated hardware at well-defined sites (arrival bursts, slice
//! corruption/timeouts, switch rejections/stalls, clock jitter, trace
//! spikes, spurious completions); with the switch on, the degradation
//! machinery pushes back:
//!
//! * a **deadline watchdog** fires at 60 % of each job's remaining
//!   budget and, if the job is projected to miss, escalates it
//!   mid-flight to [`DvfsModel::escalation`] (boost);
//! * rejected level switches are **retried with exponential backoff**
//!   from 20 µs, up to 3 times, before the stream stays put (with the
//!   switch off, a rejected switch is not retried);
//! * a stream entering 3 consecutive misses (or 32 dispatches in a row
//!   on a degraded controller) drops into **quarantine**: decisions
//!   bypass the controller and pin the nominal level until 8
//!   consecutive clean completions probe it back out. An
//!   engine-detected inconsistency quarantines a stream with the switch
//!   off too.
//!
//! Every transition is emitted as a [`TraceEvent`] (kinds in
//! [`predvfs_obs::kinds`]). Scheduled events carry the **epoch** of the
//! service attempt that produced them; escalation bumps the stream's
//! epoch, so superseded completions are recognised as stale and skipped,
//! while a current-epoch completion with no job in flight is contained
//! as an `internal_error` (event + quarantine) instead of a panic.
//!
//! Faults are queried through pure functions of `(stream, job, attempt)`
//! — never of event order — so chaos runs stay byte-deterministic across
//! thread counts; the `chaos_determinism` integration suite pins this.
//!
//! ## Sharding
//!
//! [`ServeRuntime::engine`] exposes the event loop as a resumable
//! [`ShardEngine`] over an arbitrary subset of the prepared streams:
//! the `predvfs-shard` coordinator runs one engine per shard, advancing
//! each to a common epoch boundary with [`ShardEngine::run_until`] and
//! exchanging budget grants and stream migrations in between. Three
//! properties make the sharded composition deterministic:
//!
//! * streams never interact inside the loop, so a stream's evolution
//!   depends only on its own events and on fault queries keyed by its
//!   **global** stream id — which is what lets a shard run its streams
//!   one after another instead of interleaving them on one clock;
//! * with [`EngineConfig::defer_escalations`] the watchdog records a
//!   [`BoostRequest`] instead of boosting in place, and the coordinator
//!   grants requests in globally sorted `(t_s, gid)` order — so the
//!   budget outcome is independent of how streams map to shards;
//! * each arrival schedules only its successor, so each stream's pending
//!   list stays a handful of events that migration and checkpoints move
//!   as one piece.

use std::borrow::Cow;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::OnceLock;

use predvfs::{
    AdaptiveController, CalibrationConfig, CalibrationMonitor, Decision, DvfsController, DvfsModel,
    HybridController, JobContext, LevelChoice, OnlineTrainerConfig, PidController, SliceTable,
};
use predvfs_faults::{FaultInjector, FaultKind, NullInjector};
use predvfs_obs::{kinds, NullSink, ObsSink, TraceEvent};
use predvfs_power::OperatingPoint;
use predvfs_rtl::{JobTrace, RtlError};
use predvfs_sim::{Experiment, ExperimentConfig, TraceCache};

use crate::queue::{from_order_bits, StreamQueue};
use crate::scenario::{ControllerKind, OverloadPolicy, Scenario, ServeError, StreamSpec};
use crate::slo::{SloConfig, SloTracker};

/// One memoized decision input: everything the predictive controller
/// derives from the hardware slice's run over one distinct test job.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CachedEntry {
    /// The model's (uncorrected) cycle prediction for the job.
    predicted: f64,
    /// Cycles the slice itself occupies.
    slice_cycles: f64,
    /// Slice energy at the always-nominal slice operating point.
    slice_pj: f64,
}

/// One stream as the event loop reads it: its spec and its class's
/// experiment. Arrival `i` serves test job `i % n_test`, and its ground
/// truth is that job's trace, scaled by the stream's drift from arrival
/// `⌊at_frac · jobs⌋` on.
#[derive(Clone, Copy)]
struct StreamView<'a> {
    spec: &'a StreamSpec,
    exp: &'a Experiment,
}

impl<'a> StreamView<'a> {
    /// The test job that arrival `job` serves, and the arrival's
    /// ground-truth trace. Only a drifted job's trace is built anew.
    fn job(self, job: usize) -> (usize, Cow<'a, JobTrace>) {
        let n_test = self.exp.workloads.test.len();
        // Most streams submit no more jobs than the test set holds, and
        // this runs on every dispatch: skip the division until they wrap.
        let test = if job < n_test { job } else { job % n_test };
        let base = &self.exp.test_traces[test];
        let trace = match self.spec.drift {
            Some(d) if job >= (d.at_frac * self.spec.jobs as f64).floor() as usize => {
                Cow::Owned(base.scaled(d.cycle_scale))
            }
            _ => Cow::Borrowed(base),
        };
        (test, trace)
    }
}

/// One distinct (benchmark, seed) training problem, with the
/// slice and decision tables its streams read. [`ServeRuntime::warm`] is
/// the one builder of both.
struct Class {
    exp: Experiment,
    /// How many test jobs the class's streams can submit: arrival `i`
    /// serves test job `i % n_test`, so this is the largest
    /// `min(jobs, n_test)` over every stream of the class, whatever its
    /// controller or shard. The tables hold jobs `0..reads`.
    reads: usize,
    /// The slice's runs over test jobs `0..reads`.
    slices: OnceLock<SliceTable>,
    /// Per-test-job decision table of the predictive streams
    /// ([`ControllerKind::Predictive`] and [`ControllerKind::Cached`]),
    /// derived from the slice table.
    cached: OnceLock<Vec<CachedEntry>>,
}

impl Class {
    /// The slice table, which [`ServeRuntime::warm`] built before any
    /// engine over the class's streams exists.
    fn slice_table(&self) -> &SliceTable {
        self.slices
            .get()
            .expect("ServeRuntime::warm builds a class's slice table before its streams read it")
    }

    /// The predictive decision table: the model's read-out and the slice
    /// energy of every entry of the class's slice table.
    fn cached_table(&self) -> &[CachedEntry] {
        let nominal = OperatingPoint {
            volts: 1.0,
            freq_ratio: 1.0,
        };
        self.cached.get_or_init(|| {
            self.slice_table()
                .runs()
                .iter()
                .map(|run| CachedEntry {
                    predicted: self.exp.model.predict_cycles(&run.features),
                    slice_cycles: run.cycles,
                    slice_pj: self.exp.slice_energy.job_pj(
                        run.cycles.round() as u64,
                        &run.dp_active,
                        nominal,
                        1.0,
                    ),
                })
                .collect()
        })
    }
}

/// A scenario with every stream prepared; reusable across runs. It
/// borrows the scenario's stream specs and keeps, per stream, only the
/// index of its class.
pub struct ServeRuntime<'s> {
    specs: &'s [StreamSpec],
    /// Index into `classes` of each stream's class, in scenario order.
    class_of: Vec<usize>,
    classes: Vec<Class>,
}

/// When the watchdog fires, as a fraction of the budget remaining at
/// dispatch.
const WATCHDOG_FRAC: f64 = 0.6;
/// Backoff before switch retry `n` is `RETRY_BACKOFF_S · 2ⁿ` seconds.
const RETRY_BACKOFF_S: f64 = 20e-6;
/// Consecutive clean completions that probe a stream back out of
/// quarantine.
const PROBE_JOBS: usize = 8;
/// Retries granted to a rejected level switch with degradation on; with
/// it off, none.
const MAX_SWITCH_RETRIES: u32 = 3;
/// Consecutive deadline misses that trip quarantine with degradation on.
const QUARANTINE_MISSES: usize = 3;
/// Consecutive dispatches on a degraded controller that trip quarantine
/// with degradation on: the guard against refits that never converge.
const QUARANTINE_DEGRADED: usize = 32;
/// Relative tolerance of the deadline-miss test: a job misses when its
/// response exceeds its deadline by more than this fraction of it.
const MISS_TOLERANCE: f64 = 1e-9;

/// The virtual time below which one `f64` step of seconds is at most
/// `MISS_TOLERANCE × deadline_s`, so the miss test still tells a job that
/// met a `deadline_s` deadline from one that missed it. A step at a time
/// in `[2^e, 2^(e+1))` is `2^(e−52)`, so the bound is the power of two
/// where the step first exceeds the tolerance: 2^17 s at the paper's
/// 16.7 ms deadline.
fn resolvable_horizon_s(deadline_s: f64) -> f64 {
    let e = 52 + (MISS_TOLERANCE * deadline_s).log2().floor() as i32;
    2f64.powi(e + 1)
}

/// How a [`ShardEngine`] runs its slice of the event loop.
///
/// The default is the single-engine posture: every stream's events
/// popped in one time order, watchdog escalations applied immediately,
/// full per-job records. The sharded tier flips all three knobs.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Force every stream onto one controller kind (baselines, scale
    /// benches); `None` uses each spec's own controller.
    pub force: Option<ControllerKind>,
    /// Turns the degradation machinery on: the deadline watchdog, up to
    /// 3 retries of a rejected level switch, and quarantine after 3
    /// consecutive misses or 32 consecutive degraded dispatches. Off (the
    /// chaos harness's baseline), the watchdog never fires, a rejected
    /// switch is not retried, and only an engine-detected inconsistency
    /// quarantines a stream.
    pub degrade: bool,
    /// Skip per-job [`ServeRecord`]s and calibration/SLO tracking; keep
    /// only the aggregate counters. A lean stream holds no tracker and
    /// no record buffer, so with predictive decisions its state owns no
    /// heap block while its admission queue is empty: building the
    /// engine and capturing a [`ShardEngine::checkpoint`] allocate
    /// nothing per stream, and dropping either frees nothing
    /// per stream. Scale runs over millions of jobs use this to stay
    /// allocation-flat; [`StreamResult::completed`],
    /// [`StreamResult::misses`], [`StreamResult::miss_pct`] and
    /// [`StreamResult::total_energy_pj`] stay exact either way.
    pub lean: bool,
    /// Watchdog records a [`BoostRequest`] instead of escalating in
    /// place; the owner (the shard coordinator) decides grants and
    /// applies them via [`ShardEngine::apply_boost`]. Required for a
    /// shard-count-invariant global boost budget.
    pub defer_escalations: bool,
    /// Run the engine stream-major: [`ShardEngine::run_until`] runs one
    /// stream's events before the bound to completion before it touches
    /// the next slot, instead of popping every slot's events in one time
    /// order. Despite the name, this selects only the drain order: every
    /// engine schedules each stream's next arrival while processing the
    /// current one, into the stream slot's own pending list.
    ///
    /// Per-stream results, event counts and merged traces are the same
    /// either way (streams never interact inside the loop), but the raw
    /// order of this engine's own sink is (epoch, slot, time) instead of
    /// (time, slot).
    pub one_ahead_arrivals: bool,
}

/// Per-completed-job accounting, mirroring the batch runner's fields plus
/// the service-level ones (queueing, relaxation, fallback state).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecord {
    /// Arrival index within the stream.
    pub job: usize,
    /// Virtual time the job arrived.
    pub arrival_s: f64,
    /// Virtual time service began (≥ arrival when queued).
    pub start_s: f64,
    /// Virtual time the job completed.
    pub done_s: f64,
    /// Effective relative deadline (stretched when admitted relaxed).
    pub deadline_s: f64,
    /// True when the job was admitted under a relaxed deadline.
    pub relaxed: bool,
    /// True when completion exceeded the effective deadline.
    pub missed: bool,
    /// True when the decision came from the drift fallback.
    pub degraded: bool,
    /// True when the deadline watchdog escalated the job mid-flight.
    pub escalated: bool,
    /// True when the job was served in quarantine (controller bypassed,
    /// nominal level pinned).
    pub safe_mode: bool,
    /// Core voltage of the operating point the job *finished* at.
    pub volts: f64,
    /// Total energy charged (job + slice + transition), picojoules.
    pub energy_pj: f64,
    /// Slice share of the energy, picojoules.
    pub slice_energy_pj: f64,
    /// The controller's (corrected) prediction, if it made one.
    pub predicted_cycles: Option<f64>,
    /// Ground-truth execution cycles.
    pub actual_cycles: u64,
}

/// Outcome of one stream over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// The stream's display name.
    pub name: String,
    /// Jobs the stream submitted.
    pub submitted: usize,
    /// Jobs that completed service (maintained even in lean mode, where
    /// `records` stays empty).
    pub done: usize,
    /// Completed jobs that exceeded their effective deadline.
    pub missed: usize,
    /// Total energy across completed jobs, picojoules.
    pub energy_pj: f64,
    /// Per-completed-job records, in completion order (empty when the
    /// engine ran with [`EngineConfig::lean`]).
    pub records: Vec<ServeRecord>,
    /// Arrivals dropped by the shed policy.
    pub shed: usize,
    /// Arrivals admitted with a stretched deadline.
    pub relaxed: usize,
    /// Online refits installed by an adaptive controller.
    pub refits: usize,
    /// Injected faults that fired on this stream.
    pub faults: usize,
    /// Mid-job watchdog escalations.
    pub escalations: usize,
    /// Times the stream entered quarantine.
    pub quarantines: usize,
    /// Inconsistent events the engine contained instead of panicking.
    pub internal_errors: usize,
}

impl StreamResult {
    /// Jobs that completed service.
    pub fn completed(&self) -> usize {
        self.done
    }

    /// Completed jobs that exceeded their effective deadline.
    pub fn misses(&self) -> usize {
        self.missed
    }

    /// Deadline misses as a percentage of **completed** jobs (0 when
    /// none completed — a stream that shed or never finished anything
    /// has no service quality to report, not a 0/0).
    ///
    /// Shed arrivals never complete, so they are *not* part of this
    /// denominator — a stream can show 0% misses while dropping most of
    /// its traffic. Read it together with [`StreamResult::shed_pct`]:
    /// `miss_pct` is service *quality* over the jobs that ran, `shed_pct`
    /// is the share of offered load that was refused outright.
    pub fn miss_pct(&self) -> f64 {
        if self.done == 0 {
            0.0
        } else {
            100.0 * self.missed as f64 / self.done as f64
        }
    }

    /// Shed arrivals as a percentage of submitted jobs (0 when the
    /// stream submitted nothing). The complement of the admission rate;
    /// see [`StreamResult::miss_pct`] for why the two must be read
    /// together.
    pub fn shed_pct(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            100.0 * self.shed as f64 / self.submitted as f64
        }
    }

    /// Total energy across completed jobs, picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.energy_pj
    }
}

/// Outcome of a full service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Per-stream outcomes, in scenario order.
    pub streams: Vec<StreamResult>,
    /// Virtual time of the last event.
    pub horizon_s: f64,
    /// Events processed by the engine.
    pub events: usize,
}

impl ServeResult {
    /// Jobs submitted across all streams.
    pub fn submitted(&self) -> usize {
        self.streams.iter().map(|s| s.submitted).sum()
    }

    /// Jobs completed across all streams.
    pub fn completed(&self) -> usize {
        self.streams.iter().map(|s| s.done).sum()
    }

    /// Deadline misses across all streams.
    pub fn misses(&self) -> usize {
        self.streams.iter().map(|s| s.missed).sum()
    }

    /// Shed arrivals across all streams.
    pub fn shed(&self) -> usize {
        self.streams.iter().map(|s| s.shed).sum()
    }

    /// Aggregate miss percentage over completed jobs (0 when nothing
    /// completed).
    pub fn miss_pct(&self) -> f64 {
        let done = self.completed();
        if done == 0 {
            0.0
        } else {
            100.0 * self.misses() as f64 / done as f64
        }
    }

    /// Aggregate shed percentage over submitted jobs (0 when nothing
    /// was submitted).
    pub fn shed_pct(&self) -> f64 {
        let submitted = self.submitted();
        if submitted == 0 {
            0.0
        } else {
            100.0 * self.shed() as f64 / submitted as f64
        }
    }

    /// Total energy across all completed jobs, picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.streams.iter().map(|s| s.energy_pj).sum()
    }
}

/// What the virtual clock is waiting on, for one stream.
///
/// An event does not name its stream: the stream slot's list it waits in
/// does. Every event tied to a service attempt carries the **epoch** of
/// that attempt. A watchdog escalation bumps the stream's epoch, so
/// events scheduled by a superseded attempt are recognised as stale and
/// skipped when they surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Stream's `job`-th arrival enters admission.
    Arrival { job: usize },
    /// The feature slice finished (the accelerator may start switching).
    SliceDone { epoch: u64 },
    /// The voltage regulator settled at the chosen level.
    SwitchDone { epoch: u64 },
    /// The job left the accelerator.
    JobDone { epoch: u64 },
    /// Mid-job deadline check for the attempt dispatched at `epoch`.
    Watchdog { epoch: u64 },
}

impl Event {
    /// Appends the event addressed to engine slot `slot`, as checkpoints
    /// render it: `JobDone { stream: 3, epoch: 2 }`.
    fn write_addressed(self, slot: usize, out: &mut String) {
        use std::fmt::Write as _;
        let _ = match self {
            Event::Arrival { job } => write!(out, "Arrival {{ stream: {slot}, job: {job} }}"),
            Event::SliceDone { epoch } => {
                write!(out, "SliceDone {{ stream: {slot}, epoch: {epoch} }}")
            }
            Event::SwitchDone { epoch } => {
                write!(out, "SwitchDone {{ stream: {slot}, epoch: {epoch} }}")
            }
            Event::JobDone { epoch } => write!(out, "JobDone {{ stream: {slot}, epoch: {epoch} }}"),
            Event::Watchdog { epoch } => {
                write!(out, "Watchdog {{ stream: {slot}, epoch: {epoch} }}")
            }
        };
    }
}

/// A job admitted but not yet completed.
#[derive(Debug, Clone, Copy)]
struct Admitted {
    job: usize,
    arrival_s: f64,
    deadline_abs_s: f64,
    relaxed: bool,
}

/// The in-service job and its precomputed accounting.
#[derive(Debug, Clone)]
struct InFlight {
    adm: Admitted,
    /// The service attempt this job was dispatched (or escalated) under.
    epoch: u64,
    start_s: f64,
    /// When execution proper begins (after slice + switching).
    exec_start_s: f64,
    /// Scheduled completion time (moves on escalation).
    done_s: f64,
    /// Level ordinal the job is executing at.
    key: usize,
    /// Effective execution frequency, Hz (clock jitter included).
    f_eff_hz: f64,
    degraded: bool,
    safe_mode: bool,
    escalated: bool,
    /// A deferred-mode boost request is outstanding for this attempt.
    boost_requested: bool,
    volts: f64,
    job_pj: f64,
    slice_pj: f64,
    transition_pj: f64,
    predicted_cycles: Option<f64>,
    /// Ground-truth cycles of the job as served (spiked when a
    /// trace-spike fault fired).
    actual_cycles: u64,
    /// The cycle scale of a trace-spike fault that fired on this job.
    /// Escalation re-derives the spiked ground truth from it.
    spike: Option<f64>,
}

/// Serve's one predictive decision path, for [`ControllerKind::Predictive`]
/// and [`ControllerKind::Cached`] streams alike: the model read-out and
/// slice energy for each distinct test job come from the shared class
/// table, so a decision costs a ladder scan and no per-job arithmetic.
/// Decisions are byte-identical to those of a
/// [`predvfs::PredictiveController`] over the same slice table, and the
/// controller owns no heap block, which is what makes million-stream
/// scale scenarios tractable.
#[derive(Clone)]
struct CachedCtrl<'p> {
    dvfs: &'p DvfsModel,
    f_nominal_hz: f64,
    entries: &'p [CachedEntry],
}

/// Per-stream controller dispatch. Boxing a `dyn DvfsController` would
/// lose access to the adaptive controller's refit counter, so the enum
/// keeps the concrete types. Every controller but the predictive one
/// lives behind a box, so the enum is as small as [`CachedCtrl`] and a
/// predictive stream's controller owns no heap block.
#[derive(Clone)]
enum Ctrl<'p> {
    Adaptive(Box<AdaptiveController<'p>>),
    Pid(Box<PidController>),
    Hybrid(Box<HybridController<'p>>),
    Cached(CachedCtrl<'p>),
}

impl Ctrl<'_> {
    /// Decides for one job (`ctx.index` is its index into the
    /// experiment's test set). The second element is the cached
    /// slice-energy hint, which saves the engine recomputing slice energy
    /// per dispatch.
    fn decide(
        &mut self,
        ctx: &JobContext<'_>,
    ) -> Result<(Decision, Option<f64>), predvfs::CoreError> {
        match self {
            Ctrl::Adaptive(c) => Ok((c.decide(ctx)?, None)),
            Ctrl::Pid(c) => Ok((c.decide(ctx)?, None)),
            Ctrl::Hybrid(c) => Ok((c.decide(ctx)?, None)),
            Ctrl::Cached(c) => {
                let e = c.entries[ctx.index];
                let slice_time_s = e.slice_cycles / c.f_nominal_hz;
                let choice =
                    c.dvfs
                        .choose(e.predicted, c.f_nominal_hz, ctx.deadline_s, slice_time_s);
                Ok((
                    Decision {
                        choice,
                        slice_cycles: e.slice_cycles,
                        slice_dp_active: Vec::new(),
                        predicted_cycles: Some(e.predicted),
                    },
                    Some(e.slice_pj),
                ))
            }
        }
    }

    fn observe(&mut self, actual: u64) {
        match self {
            Ctrl::Adaptive(c) => c.observe(actual),
            Ctrl::Pid(c) => c.observe(actual),
            Ctrl::Hybrid(c) => c.observe(actual),
            Ctrl::Cached(_) => {}
        }
    }

    fn refits(&self) -> usize {
        match self {
            Ctrl::Adaptive(c) => c.refits(),
            _ => 0,
        }
    }

    fn is_degraded(&self) -> bool {
        match self {
            Ctrl::Adaptive(c) => c.is_degraded(),
            _ => false,
        }
    }
}

/// Mutable service state of one stream during a run. `Clone` produces a
/// behaviourally identical copy (the shard tier's checkpoint and journal
/// payloads rely on this): every field is plain data except the
/// controller, which borrows its class's shared, immutable slice table
/// instead of owning a slice runner, so a clone copies the borrow.
///
/// The state carries no identity: trace events borrow the stream's name
/// from its [`StreamSpec`], and [`ShardEngine::finish`] attaches it to
/// the result. A lean engine drops the per-job records and the trackers.
/// With predictive decisions a lean stream's state then owns no heap
/// block until its admission queue fills, so building a shard and
/// checkpointing it allocate nothing per stream.
#[derive(Clone)]
struct StreamState<'p> {
    ctrl: Ctrl<'p>,
    queue: VecDeque<Admitted>,
    in_flight: Option<InFlight>,
    prev_key: usize,
    started: usize,
    /// Epoch of the most recent service attempt; scheduled events from
    /// older epochs are stale.
    epoch: u64,
    /// Consecutive deadline misses (quarantine trigger).
    consec_misses: usize,
    /// Consecutive dispatches made while the controller was degraded
    /// (quarantine trigger for refits that never converge).
    consec_degraded: usize,
    /// `Some(clean)` while quarantined: `clean` consecutive clean
    /// completions so far, out of the `probe_jobs` needed to recover.
    quarantine: Option<usize>,
    /// Last observed controller degradation, for edge-triggered
    /// drift-fallback events.
    was_degraded: bool,
    /// Last observed refit count, for edge-triggered refit events.
    seen_refits: usize,
    /// Prediction-quality and burn-rate tracking; `None` in a lean
    /// engine.
    trackers: Option<Box<Trackers>>,
    /// The counters and records; `name` stays empty until
    /// [`ShardEngine::finish`].
    result: StreamResult,
}

/// The trackers of a stream that keeps full records. They feed gauges and
/// edge-triggered alert events, never the results, so a lean engine keeps
/// none.
#[derive(Clone)]
struct Trackers {
    /// Prediction-quality monitor for non-adaptive controllers (the
    /// adaptive controller's own trainer monitor is read instead, so the
    /// exported gauges and the refit trigger share one window).
    calib: CalibrationMonitor,
    /// Last observed calibration-alert level, for edge-triggered events.
    calib_alert: bool,
    /// Deadline-miss burn-rate tracker, clocked by the virtual clock.
    slo: SloTracker,
}

impl StreamState<'_> {
    /// Emits edge-triggered controller-transition events (drift fallback
    /// engaged/cleared, refit installed) after a controller interaction.
    ///
    /// The `was_degraded` / `seen_refits` edge state advances even when
    /// the sink is disabled: crash-recovery replay runs against a
    /// [`NullSink`](predvfs_obs::NullSink) and then swaps the real sink
    /// back in, and a tracker frozen during replay would re-emit (or
    /// mistime) transitions the lost engine already reported.
    fn note_ctrl_transitions(&mut self, name: &str, now: f64, sink: &dyn ObsSink) {
        let degraded = self.ctrl.is_degraded();
        if degraded != self.was_degraded {
            self.was_degraded = degraded;
            if sink.enabled() {
                sink.emit(
                    TraceEvent::new(now, name, kinds::DRIFT_FALLBACK)
                        .with_bool("engaged", degraded),
                );
                if degraded {
                    sink.counter_add("predvfs_serve_drift_fallbacks_total", 1);
                }
            }
        }
        let refits = self.ctrl.refits();
        if refits > self.seen_refits {
            let delta = (refits - self.seen_refits) as u64;
            self.seen_refits = refits;
            if sink.enabled() {
                sink.emit(
                    TraceEvent::new(now, name, kinds::REFIT).with_u64("refits", refits as u64),
                );
                sink.counter_add("predvfs_serve_refits_total", delta);
            }
        }
    }

    /// Records one fired fault, and traces it when observability is on.
    fn note_fault(
        &mut self,
        name: &str,
        now: f64,
        sink: &dyn ObsSink,
        kind: &FaultKind,
        job: usize,
    ) {
        self.result.faults += 1;
        if sink.enabled() {
            sink.counter_add("predvfs_serve_faults_total", 1);
            let mut ev = TraceEvent::new(now, name, kinds::FAULT)
                .with_str("kind", kind.name())
                .with_u64("job", job as u64);
            if let Some(m) = kind.magnitude() {
                ev = ev.with_f64("magnitude", m);
            }
            sink.emit(ev);
        }
    }

    /// Drops the stream into quarantine (no-op when already there).
    fn enter_quarantine(&mut self, name: &str, now: f64, sink: &dyn ObsSink, reason: &str) {
        if self.quarantine.is_some() {
            return;
        }
        self.quarantine = Some(0);
        self.result.quarantines += 1;
        self.consec_misses = 0;
        if sink.enabled() {
            sink.counter_add("predvfs_serve_quarantines_total", 1);
            sink.emit(
                TraceEvent::new(now, name, kinds::QUARANTINE)
                    .with_bool("engaged", true)
                    .with_str("reason", reason),
            );
        }
    }

    /// Leaves quarantine after a successful probe sequence.
    fn exit_quarantine(&mut self, name: &str, now: f64, sink: &dyn ObsSink) {
        self.quarantine = None;
        self.consec_misses = 0;
        self.consec_degraded = 0;
        if sink.enabled() {
            sink.emit(
                TraceEvent::new(now, name, kinds::QUARANTINE)
                    .with_bool("engaged", false)
                    .with_str("reason", "probe_recover"),
            );
        }
    }
}

/// Maps a level choice to an ordinal for switching-cost bookkeeping.
fn level_key(dvfs: &DvfsModel, choice: LevelChoice) -> usize {
    match choice {
        LevelChoice::Regular(i) => i,
        LevelChoice::Boost => dvfs.ladder.len(),
    }
}

/// Inverse of [`level_key`]: the choice a stored ordinal denotes.
fn key_choice(dvfs: &DvfsModel, key: usize) -> LevelChoice {
    if key == dvfs.ladder.len() {
        LevelChoice::Boost
    } else {
        LevelChoice::Regular(key)
    }
}

/// A deferred watchdog escalation: stream `gid`'s in-flight attempt
/// `epoch` was projected to miss at virtual time `t_s`. The coordinator
/// sorts requests from all shards by `(t_s, gid)` and grants the global
/// boost budget in that order — a total order independent of the
/// stream-to-shard mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostRequest {
    /// Global stream id.
    pub gid: usize,
    /// Virtual time the watchdog fired.
    pub t_s: f64,
    /// The service attempt the request belongs to.
    pub epoch: u64,
}

/// A point-in-time load summary of one [`ShardEngine`], the signal the
/// coordinator's rebalancer reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardLoad {
    /// Streams currently owned by the shard.
    pub streams: usize,
    /// Streams with a job in flight.
    pub active: usize,
    /// Jobs waiting in admission queues.
    pub queued: usize,
    /// Events pending in the shard, over all of its streams; 0 exactly
    /// when the shard is idle (see [`ShardEngine::is_idle`]).
    pub pending_events: usize,
    /// Jobs completed by this shard so far.
    pub jobs_done: u64,
    /// Virtual time of the shard's earliest pending event, `None` when
    /// idle. A coordinator tells a shard with an event due before a bound
    /// from one without by it.
    pub next_event_s: Option<f64>,
}

/// A stream extracted from one [`ShardEngine`] for admission into
/// another: its full service state plus its pending events (in time
/// order). Produced by [`ShardEngine::extract_stream`], consumed by
/// [`ShardEngine::admit_stream`]. `Clone` copies the full service state,
/// which is what lets the shard tier checkpoint engines and journal
/// in-flight transfers.
#[derive(Clone)]
pub struct MigratedStream<'rt> {
    gid: usize,
    /// The slot the stream held in the engine it was taken from; its
    /// rendering addresses the pending events to it.
    slot: usize,
    state: StreamState<'rt>,
    /// Pending events, in the order the stream pops them.
    events: StreamQueue<Event>,
}

impl MigratedStream<'_> {
    /// The global stream id being migrated.
    pub fn gid(&self) -> usize {
        self.gid
    }

    /// Pending events travelling with the stream.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// The quarantine probe countdown travelling with the stream:
    /// `Some(clean)` when quarantined with `clean` consecutive clean
    /// completions so far, `None` when healthy. Conservation tests use
    /// this to pin that probe-recovery state survives migration and
    /// checkpoint round-trips.
    pub fn quarantine_probe(&self) -> Option<usize> {
        self.state.quarantine
    }

    /// Appends a canonical, byte-deterministic rendering of the full
    /// service state to `out` — every scalar exactly (floats as bit
    /// patterns), the admission queue, the in-flight job, and the
    /// pending events in time order. Two engines in the same logical
    /// state render identically, so checkpoint digests and the
    /// snapshot-stability regression test compare these bytes directly.
    pub fn write_summary(&self, out: &mut String) {
        use std::fmt::Write as _;
        let st = &self.state;
        let r = &st.result;
        let _ = write!(
            out,
            "gid={} started={} epoch={} prev_key={} misses={} degraded={} quar={:?} \
             was_deg={} refits={} alert={}",
            self.gid,
            st.started,
            st.epoch,
            st.prev_key,
            st.consec_misses,
            st.consec_degraded,
            st.quarantine,
            st.was_degraded,
            st.seen_refits,
            st.trackers.as_ref().is_some_and(|t| t.calib_alert),
        );
        let _ = write!(
            out,
            " r=({},{},{},{},{},{},{},{},{:016x})",
            r.done,
            r.missed,
            r.shed,
            r.relaxed,
            r.faults,
            r.escalations,
            r.quarantines,
            r.internal_errors,
            r.energy_pj.to_bits(),
        );
        for adm in &st.queue {
            let _ = write!(
                out,
                " q=({},{:016x},{:016x},{})",
                adm.job,
                adm.arrival_s.to_bits(),
                adm.deadline_abs_s.to_bits(),
                adm.relaxed,
            );
        }
        if let Some(fly) = &st.in_flight {
            let _ = write!(
                out,
                " fly=({},{},{},{:016x},{:016x},{:016x},{},{},{},{},{:016x},{:016x},{:016x},{})",
                fly.adm.job,
                fly.epoch,
                fly.key,
                fly.done_s.to_bits(),
                fly.exec_start_s.to_bits(),
                fly.f_eff_hz.to_bits(),
                fly.degraded,
                fly.safe_mode,
                fly.escalated,
                fly.boost_requested,
                fly.job_pj.to_bits(),
                fly.slice_pj.to_bits(),
                fly.transition_pj.to_bits(),
                fly.actual_cycles,
            );
        }
        for (t, e) in self.events.iter() {
            let _ = write!(out, " ev=({:016x},", t.to_bits());
            e.write_addressed(self.slot, out);
            out.push(')');
        }
        out.push('\n');
    }
}

/// One occupied stream slot of a [`ShardEngine`].
struct Slot<'rt> {
    gid: usize,
    state: StreamState<'rt>,
}

/// A complete logical snapshot of a [`ShardEngine`], produced by
/// [`ShardEngine::checkpoint`]: the run counters plus every owned
/// stream's [`MigratedStream`] (gid-ascending). Restore by admitting
/// each stream into a freshly built empty engine and then calling
/// [`ShardEngine::restore_counters`]; the shard tier does exactly this
/// when rebuilding a crashed shard.
#[derive(Clone)]
pub struct EngineCheckpoint<'rt> {
    /// Virtual time of the latest event processed at capture.
    pub horizon_s: f64,
    /// Events processed at capture.
    pub events: usize,
    /// Jobs completed at capture.
    pub jobs_done: u64,
    /// Every owned stream's state + pending events, gid-ascending.
    pub streams: Vec<MigratedStream<'rt>>,
}

impl EngineCheckpoint<'_> {
    /// Canonical byte rendering of the whole checkpoint: the counters
    /// line followed by one [`MigratedStream::write_summary`] line per
    /// stream. Byte-identical across runs of the same scenario — the
    /// snapshot-stability regression test pins this.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "horizon={:016x} events={} jobs_done={} streams={}",
            self.horizon_s.to_bits(),
            self.events,
            self.jobs_done,
            self.streams.len(),
        );
        for s in &self.streams {
            s.write_summary(&mut out);
        }
        out
    }

    /// A stable 64-bit FNV-1a digest of [`EngineCheckpoint::render`],
    /// cheap enough to stamp into every checkpoint trace event.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.render().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }
}

impl<'s> ServeRuntime<'s> {
    /// Trains and slices every stream, in parallel, sharing `cache` for
    /// trace simulation. Streams with identical (benchmark, seed) are one
    /// training problem: the class is prepared once and shared, so
    /// scenario size scales the cheap per-stream state, not the expensive
    /// pipeline. A stream's deadline comes from its own spec, never from
    /// the class. The runtime borrows the scenario's specs.
    ///
    /// # Errors
    ///
    /// Rejects degenerate stream specs and a name used by two streams
    /// ([`ServeError::InvalidSpec`]): traces, metrics and the merged
    /// trace order tell streams apart by name. So is a stream whose last
    /// arrival plus its deadline reaches the virtual time at which one
    /// `f64` step of seconds exceeds 1e-9 of its deadline, the miss
    /// test's tolerance: 2^17 s at the paper's 16.7 ms. Propagates
    /// pipeline failures.
    pub fn prepare(
        scenario: &'s Scenario,
        cache: &TraceCache,
    ) -> Result<ServeRuntime<'s>, ServeError> {
        for spec in &scenario.streams {
            let invalid = |msg: &str| ServeError::InvalidSpec {
                stream: spec.name.clone(),
                msg: msg.to_owned(),
            };
            if spec.jobs == 0 {
                return Err(invalid("stream submits no jobs"));
            }
            if spec.period_s.partial_cmp(&0.0) != Some(Ordering::Greater) {
                return Err(invalid("arrival period must be positive"));
            }
            if spec.deadline_s.partial_cmp(&0.0) != Some(Ordering::Greater) {
                return Err(invalid("deadline must be positive"));
            }
            let horizon_s = (spec.jobs - 1) as f64 * spec.period_s + spec.deadline_s;
            let bound_s = resolvable_horizon_s(spec.deadline_s);
            if horizon_s.partial_cmp(&bound_s) != Some(Ordering::Less) {
                return Err(invalid(&format!(
                    "last arrival plus deadline reaches {horizon_s:e} s of virtual time; \
                     f64 seconds resolve the {MISS_TOLERANCE:e} relative miss tolerance \
                     of a {deadline_s:e} s deadline only below {bound_s:e} s",
                    deadline_s = spec.deadline_s,
                )));
            }
        }
        // Sorted, a repeated name sits next to its twin. Generated
        // scenarios name their streams in order, which the sort recognises
        // in one linear pass; a hash set of 2^18 names took several times
        // as long.
        let mut names: Vec<&str> = scenario.streams.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if let Some(pair) = names.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(ServeError::InvalidSpec {
                stream: pair[0].to_owned(),
                msg: "another stream has the same name".to_owned(),
            });
        }
        let sink = predvfs_obs::global();
        let _prepare_span = predvfs_obs::span("serve.prepare");
        sink.counter_add(
            "predvfs_serve_streams_prepared_total",
            scenario.streams.len() as u64,
        );

        // Deduplicate training problems, keyed by (benchmark, seed), across
        // the scenario.
        let mut class_of = Vec::with_capacity(scenario.streams.len());
        let mut uniq: Vec<&StreamSpec> = Vec::new();
        let mut index: HashMap<(&str, u64), usize> = HashMap::new();
        for spec in &scenario.streams {
            let idx = *index
                .entry((spec.bench.name, spec.seed))
                .or_insert_with(|| {
                    uniq.push(spec);
                    uniq.len() - 1
                });
            class_of.push(idx);
        }
        let exps: Vec<Experiment> = predvfs_par::par_try_map(&uniq, |spec| {
            let mut config = ExperimentConfig::paper_default(scenario.platform);
            config.size = scenario.size;
            config.seed = spec.seed;
            let exp =
                Experiment::prepare_cached(spec.bench, config, cache).map_err(ServeError::Core)?;
            // Guard the modulo of `StreamView::job`: a benchmark that
            // generates no test jobs must surface as a spec error, not as
            // a divide-by-zero panic in the event loop.
            if exp.workloads.test.is_empty() {
                return Err(ServeError::InvalidSpec {
                    stream: spec.name.clone(),
                    msg: "benchmark generated an empty test set".to_owned(),
                });
            }
            Ok(exp)
        })?;

        // Per class: the test jobs its streams can submit (`Class::reads`).
        let mut reads = vec![0; exps.len()];
        for (spec, &class) in scenario.streams.iter().zip(&class_of) {
            reads[class] = reads[class].max(spec.jobs.min(exps[class].workloads.test.len()));
        }
        let classes = exps
            .into_iter()
            .zip(reads)
            .map(|(exp, reads)| Class {
                exp,
                reads,
                slices: OnceLock::new(),
                cached: OnceLock::new(),
            })
            .collect();
        Ok(ServeRuntime {
            specs: &scenario.streams,
            class_of,
            classes,
        })
    }

    /// The prepared streams' specs, in scenario order.
    pub fn specs(&self) -> &'s [StreamSpec] {
        self.specs
    }

    /// Stream `gid` as the event loop reads it.
    fn stream(&self, gid: usize) -> StreamView<'_> {
        StreamView {
            spec: &self.specs[gid],
            exp: &self.classes[self.class_of[gid]].exp,
        }
    }

    /// Pre-builds every table the streams will read under `force` (or
    /// their own controller): each class's slice table for the
    /// slice-reading controllers, plus its decision table for the
    /// predictive ones ([`ControllerKind::Predictive`] and
    /// [`ControllerKind::Cached`]). A class's tables cover the test jobs
    /// its streams can submit and are built once. [`ServeRuntime::engine`]
    /// warms its members the same way; calling this first keeps that work
    /// out of the shards' epochs.
    ///
    /// # Errors
    ///
    /// Propagates slice-execution failures: the error of the first
    /// failing class, in class order.
    pub fn warm_cached_tables(&self, force: Option<ControllerKind>) -> Result<(), ServeError> {
        self.warm(0..self.specs.len(), force)
    }

    /// Builds the tables the `gids` streams read (see
    /// [`ServeRuntime::warm_cached_tables`]) in one flat fan-out of slice
    /// runs over every `(class, job)` pair of the classes still cold.
    fn warm(
        &self,
        gids: impl IntoIterator<Item = usize>,
        force: Option<ControllerKind>,
    ) -> Result<(), ServeError> {
        let _span = predvfs_obs::span("serve.warm");
        // Per class: (reads the slice table, reads the decision table).
        let mut wants = vec![(false, false); self.classes.len()];
        for gid in gids {
            let class = self.class_of[gid];
            match force.unwrap_or(self.specs[gid].controller) {
                ControllerKind::Pid => {}
                ControllerKind::Predictive | ControllerKind::Cached => {
                    wants[class] = (true, true);
                }
                _ => wants[class].0 = true,
            }
        }
        let cold: Vec<&Class> = self
            .classes
            .iter()
            .zip(&wants)
            .filter(|(class, (slices, _))| *slices && class.slices.get().is_none())
            .map(|(class, _)| class)
            .collect();
        let pairs: Vec<(&Class, usize)> = cold
            .iter()
            .flat_map(|&class| (0..class.reads).map(move |job| (class, job)))
            .collect();
        let runs = predvfs_par::par_map(&pairs, |&(class, job)| {
            class
                .exp
                .predictor
                .runner()
                .run(&class.exp.workloads.test[job])
        });

        // Regroup in class order. A class's table is its runs in job
        // order, or the error of its lowest-indexed failing job. Should
        // two warm-ups of one class race, the first stored table wins.
        let mut runs = runs.into_iter();
        let mut first_err = None;
        for class in cold {
            let mut chunk = runs.by_ref().take(class.reads);
            match chunk.by_ref().collect::<Result<SliceTable, RtlError>>() {
                Ok(table) => {
                    let _ = class.slices.set(table);
                }
                Err(e) => {
                    first_err.get_or_insert(ServeError::Core(e.into()));
                    // Skip the rest of the class's runs.
                    chunk.for_each(drop);
                }
            }
        }
        for (class, &(_, cached)) in self.classes.iter().zip(&wants) {
            if cached && class.slices.get().is_some() {
                class.cached_table();
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Runs the scenario with each stream's configured controller.
    ///
    /// # Errors
    ///
    /// Propagates controller failures (e.g. a hung slice).
    pub fn run(&self) -> Result<ServeResult, ServeError> {
        self.run_with(None)
    }

    /// Runs the scenario, optionally forcing every stream onto one
    /// controller kind (for baseline comparisons over identical arrivals).
    ///
    /// # Errors
    ///
    /// Propagates controller failures (e.g. a hung slice).
    pub fn run_with(&self, force: Option<ControllerKind>) -> Result<ServeResult, ServeError> {
        self.run_observed(force, &NullSink)
    }

    /// Runs the scenario with observability: per-stream service events
    /// go to `sink` as [`TraceEvent`]s stamped with the **virtual**
    /// clock, and slack / response / queue-depth / energy observations
    /// land in its histograms.
    ///
    /// All emission happens on the serial event loop, so for a given
    /// scenario the event sequence (and its JSONL rendering) is
    /// byte-identical regardless of worker-thread count. Passing
    /// [`NullSink`] makes this exactly [`ServeRuntime::run_with`]; the
    /// engine then pays one `enabled()` branch per event.
    ///
    /// # Errors
    ///
    /// Propagates controller failures (e.g. a hung slice).
    pub fn run_observed(
        &self,
        force: Option<ControllerKind>,
        sink: &dyn ObsSink,
    ) -> Result<ServeResult, ServeError> {
        self.run_chaos(force, sink, &NullInjector, false)
    }

    /// Runs the scenario under fault injection, with the degradation
    /// machinery on when `degrade` is set ([`EngineConfig::degrade`]) —
    /// the chaos-testing entry point. With [`NullInjector`] and `degrade`
    /// off this is exactly [`ServeRuntime::run_observed`].
    ///
    /// Determinism is preserved: the injector is only queried with
    /// `(stream, job, attempt)` coordinates from the serial event loop,
    /// so for a given scenario, seed, and configuration the result and
    /// the emitted trace are byte-identical across worker-thread counts.
    ///
    /// # Errors
    ///
    /// Propagates controller failures (e.g. a hung slice).
    pub fn run_chaos(
        &self,
        force: Option<ControllerKind>,
        sink: &dyn ObsSink,
        injector: &dyn FaultInjector,
        degrade: bool,
    ) -> Result<ServeResult, ServeError> {
        let _run_span = predvfs_obs::span("serve.run");
        let members: Vec<usize> = (0..self.specs.len()).collect();
        let config = EngineConfig {
            force,
            degrade,
            ..EngineConfig::default()
        };
        let mut engine = self.engine(&members, config, sink, injector)?;
        engine.run_until(f64::INFINITY)?;
        let horizon_s = engine.horizon_s();
        let events = engine.events();
        let streams = engine.finish().into_iter().map(|(_, r)| r).collect();
        Ok(ServeResult {
            streams,
            horizon_s,
            events,
        })
    }

    /// Builds a resumable [`ShardEngine`] over the streams named by
    /// `members` (global stream ids into this runtime, in slot order).
    /// The single-engine entry points are `engine` over all streams with
    /// the default [`EngineConfig`]; the sharded tier builds one engine
    /// per shard with deferred escalations, run stream-major.
    ///
    /// It first warms the tables its members read (as
    /// [`ServeRuntime::warm_cached_tables`] does), which is a no-op for
    /// classes already warm; the members' controllers then borrow them.
    ///
    /// # Errors
    ///
    /// Propagates slice-table build failures of the members' classes.
    ///
    /// # Panics
    ///
    /// Panics if a member index is out of range.
    pub fn engine<'rt>(
        &'rt self,
        members: &[usize],
        config: EngineConfig,
        sink: &'rt dyn ObsSink,
        injector: &'rt dyn FaultInjector,
    ) -> Result<ShardEngine<'rt>, ServeError> {
        let mut engine = ShardEngine {
            rt: self,
            sink,
            injector,
            faults_on: injector.enabled(),
            degrade: config.degrade,
            lean: config.lean,
            defer: config.defer_escalations,
            stream_major: config.one_ahead_arrivals,
            slots: Vec::with_capacity(members.len()),
            by_gid: members
                .iter()
                .enumerate()
                .map(|(slot_idx, &gid)| (gid, slot_idx))
                .collect(),
            pending: Vec::with_capacity(members.len()),
            horizon_s: 0.0,
            events: 0,
            jobs_done: 0,
            boost_requests: Vec::new(),
        };
        engine.by_gid.sort_unstable();
        self.warm(members.iter().copied(), config.force)?;
        for &gid in members {
            let spec = &self.specs[gid];
            let kind = config.force.unwrap_or(spec.controller);
            engine.slots.push(Some(Slot {
                gid,
                state: new_state(spec, &self.classes[self.class_of[gid]], kind, config.lean),
            }));
            // Job 0 arrives at its nominal instant; each arrival then
            // schedules its successor.
            let mut list = StreamQueue::default();
            list.push(0.0, Event::Arrival { job: 0 });
            engine.pending.push(list);
        }
        Ok(engine)
    }
}

/// Fresh run-time state for one stream. Slice-reading controllers borrow
/// the class's tables, which the engine warmed beforehand.
fn new_state<'rt>(
    spec: &StreamSpec,
    class: &'rt Class,
    kind: ControllerKind,
    lean: bool,
) -> StreamState<'rt> {
    let exp = &class.exp;
    let dvfs = &exp.dvfs;
    let f_hz = exp.energy.f_nominal_hz();
    let ctrl = match kind {
        ControllerKind::Adaptive => Ctrl::Adaptive(Box::new(AdaptiveController::new(
            dvfs.clone(),
            f_hz,
            class.slice_table(),
            exp.model.clone(),
            OnlineTrainerConfig::default(),
        ))),
        ControllerKind::Pid => Ctrl::Pid(Box::new(PidController::tuned(dvfs.clone(), f_hz))),
        ControllerKind::Hybrid => Ctrl::Hybrid(Box::new(HybridController::new(
            dvfs.clone(),
            f_hz,
            class.slice_table(),
            &exp.model,
        ))),
        ControllerKind::Predictive | ControllerKind::Cached => Ctrl::Cached(CachedCtrl {
            dvfs,
            f_nominal_hz: f_hz,
            entries: class.cached_table(),
        }),
    };
    StreamState {
        ctrl,
        queue: VecDeque::new(),
        in_flight: None,
        prev_key: level_key(dvfs, dvfs.nominal()),
        started: 0,
        epoch: 0,
        consec_misses: 0,
        consec_degraded: 0,
        quarantine: None,
        was_degraded: false,
        seen_refits: 0,
        trackers: (!lean).then(|| {
            Box::new(Trackers {
                calib: CalibrationMonitor::new(CalibrationConfig::default()),
                calib_alert: false,
                slo: SloTracker::new(SloConfig::for_deadline(spec.deadline_s)),
            })
        }),
        result: StreamResult {
            name: String::new(),
            submitted: spec.jobs,
            done: 0,
            missed: 0,
            energy_pj: 0.0,
            records: if lean {
                Vec::new()
            } else {
                Vec::with_capacity(spec.jobs)
            },
            shed: 0,
            relaxed: 0,
            refits: 0,
            faults: 0,
            escalations: 0,
            quarantines: 0,
            internal_errors: 0,
        },
    }
}

/// A resumable event-loop engine over a subset of a runtime's streams —
/// one shard of the sharded serve tier (or the whole scenario, for the
/// single-engine entry points).
///
/// The engine owns its members' virtual clocks, admission queues, and
/// pending events; [`ShardEngine::run_until`] advances strictly below a
/// time bound and returns, so a coordinator can advance many engines to a
/// common epoch boundary, exchange [`BoostRequest`] grants and stream
/// migrations, and resume.
pub struct ShardEngine<'rt> {
    rt: &'rt ServeRuntime<'rt>,
    sink: &'rt dyn ObsSink,
    injector: &'rt dyn FaultInjector,
    faults_on: bool,
    degrade: bool,
    lean: bool,
    defer: bool,
    /// Drain each stream to the bound in turn instead of one time order
    /// ([`EngineConfig::one_ahead_arrivals`]).
    stream_major: bool,
    /// Slot-indexed stream states; a migrated-away stream leaves `None`
    /// (slot indices are never reused, admissions append).
    slots: Vec<Option<Slot<'rt>>>,
    /// `(gid, slot)` per owned stream, sorted by gid and binary-searched:
    /// every iteration that reaches snapshots, checkpoints, or traces
    /// walks streams gid-ascending (a `HashMap` here would make
    /// checkpoint bytes depend on hasher seeding), and the index is one
    /// allocation however many streams the engine owns.
    by_gid: Vec<(usize, usize)>,
    /// Each slot's pending events, indexed like `slots` (a vacated slot
    /// keeps an empty list).
    pending: Vec<StreamQueue<Event>>,
    horizon_s: f64,
    events: usize,
    jobs_done: u64,
    boost_requests: Vec<BoostRequest>,
}

impl<'rt> ShardEngine<'rt> {
    /// Whether the engine has nothing left to do. (A job in flight
    /// always has a pending completion event, so no pending event means
    /// fully drained.)
    pub fn is_idle(&self) -> bool {
        self.pending.iter().all(StreamQueue::is_empty)
    }

    /// Virtual time of the latest event processed so far.
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// Events processed so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Jobs completed so far.
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done
    }

    /// Whether the engine currently owns stream `gid`.
    pub fn owns(&self, gid: usize) -> bool {
        self.gid_pos(gid).is_some()
    }

    /// The position of stream `gid` in `by_gid`, if the engine owns it.
    fn gid_pos(&self, gid: usize) -> Option<usize> {
        self.by_gid.binary_search_by_key(&gid, |&(g, _)| g).ok()
    }

    /// Takes the boost requests accumulated since the last drain.
    pub fn drain_boost_requests(&mut self) -> Vec<BoostRequest> {
        std::mem::take(&mut self.boost_requests)
    }

    /// Redirects subsequent trace/metric emission to `sink`. The shard
    /// tier's crash recovery replays a rebuilt engine against a
    /// [`NullSink`] (the lost engine already emitted those events before
    /// the crash) and then swaps the real sink back in here.
    pub fn set_sink(&mut self, sink: &'rt dyn ObsSink) {
        self.sink = sink;
    }

    /// Captures the engine's complete logical state as of now: every
    /// owned stream's service state and pending events (gid-ascending,
    /// events time-ordered) plus the run counters. Restoring the
    /// checkpoint into a fresh engine (admit each stream, then
    /// [`ShardEngine::restore_counters`]) yields an engine that evolves
    /// identically — pending-event relative order is preserved per
    /// stream, and streams never interact inside the loop.
    pub fn checkpoint(&self) -> EngineCheckpoint<'rt> {
        let mut streams = Vec::with_capacity(self.by_gid.len());
        for &(gid, slot_idx) in &self.by_gid {
            let slot = self.slots[slot_idx].as_ref().expect("by_gid maps to slot");
            streams.push(MigratedStream {
                gid,
                slot: slot_idx,
                state: slot.state.clone(),
                events: self.pending[slot_idx].clone(),
            });
        }
        EngineCheckpoint {
            horizon_s: self.horizon_s,
            events: self.events,
            jobs_done: self.jobs_done,
            streams,
        }
    }

    /// Overwrites the run counters with checkpointed values — the last
    /// step of restoring an [`EngineCheckpoint`] into a fresh engine.
    pub fn restore_counters(&mut self, horizon_s: f64, events: usize, jobs_done: u64) {
        self.horizon_s = horizon_s;
        self.events = events;
        self.jobs_done = jobs_done;
    }

    /// Processes every event strictly before `t_end` (pass
    /// `f64::INFINITY` to drain).
    ///
    /// The single engine pops every stream's events in one time order,
    /// the lowest slot first on ties. A stream-major engine walks its
    /// slots in order and runs each stream's events before `t_end` to
    /// completion before it touches the next; a slot with nothing due is
    /// passed over on the first entry of its list, which lives in the list
    /// itself, without reading the stream's state.
    ///
    /// # Errors
    ///
    /// Propagates controller failures (e.g. a hung slice).
    pub fn run_until(&mut self, t_end: f64) -> Result<(), ServeError> {
        // The lists leave the engine while it runs, so each dispatch can
        // borrow the engine and the list it schedules into at once.
        let mut lists = std::mem::take(&mut self.pending);
        let result = if self.stream_major {
            self.drain_each_stream(&mut lists, t_end)
        } else {
            self.drain_in_time_order(&mut lists, t_end)
        };
        self.pending = lists;
        result
    }

    /// Runs each slot's events before `t_end`, one slot after another.
    fn drain_each_stream(
        &mut self,
        lists: &mut [StreamQueue<Event>],
        t_end: f64,
    ) -> Result<(), ServeError> {
        for (slot, list) in lists.iter_mut().enumerate() {
            while let Some((time, event)) = list.pop_before(t_end) {
                self.step(slot, list, time, event)?;
            }
        }
        Ok(())
    }

    /// Runs every slot's events before `t_end` in one time order. A heap
    /// holds one `(first event's time key, slot)` entry per slot with
    /// events pending, so its top is the earliest event, the lowest slot
    /// on ties. A dispatch schedules only into the slot it serves, so only
    /// that slot's entry moves.
    fn drain_in_time_order(
        &mut self,
        lists: &mut [StreamQueue<Event>],
        t_end: f64,
    ) -> Result<(), ServeError> {
        let mut heads: BinaryHeap<Reverse<(u64, usize)>> = lists
            .iter()
            .enumerate()
            .filter_map(|(slot, list)| Some(Reverse((list.first_key()?, slot))))
            .collect();
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((_, slot)) = *head;
            let list = &mut lists[slot];
            // Stop at the earliest event due at or after `t_end`.
            let Some((time, event)) = list.pop_before(t_end) else {
                break;
            };
            self.step(slot, list, time, event)?;
            match list.first_key() {
                Some(key) => *head = Reverse((key, slot)),
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        Ok(())
    }

    /// Applies one granted [`BoostRequest`] at virtual time `now` (the
    /// epoch boundary): re-runs the escalation math as of `now` and
    /// boosts the attempt if it still helps. Returns whether the boost
    /// was applied (a request can go stale if its attempt completed or
    /// was superseded within the epoch).
    pub fn apply_boost(&mut self, req: BoostRequest, now: f64) -> bool {
        let Some(pos) = self.gid_pos(req.gid) else {
            return false;
        };
        let slot_idx = self.by_gid[pos].1;
        let s = self.rt.stream(req.gid);
        let mut cx = Loop {
            sink: self.sink,
            injector: self.injector,
            faults_on: self.faults_on,
            degrade: self.degrade,
            lean: self.lean,
            defer: self.defer,
            events: &mut self.pending[slot_idx],
            boosts: &mut self.boost_requests,
        };
        let slot = self.slots[slot_idx].as_mut().expect("by_gid maps to slot");
        let state = &mut slot.state;
        {
            let Some(fly) = state.in_flight.as_ref() else {
                return false;
            };
            if fly.epoch != req.epoch || fly.escalated {
                return false;
            }
        }
        cx.escalate(s, state, now)
    }

    /// Removes stream `gid` (state + pending events) for migration to
    /// another engine; `None` when this engine does not own it. The slot's
    /// list goes with the stream as it is.
    pub fn extract_stream(&mut self, gid: usize) -> Option<MigratedStream<'rt>> {
        let (_, slot_idx) = self.by_gid.remove(self.gid_pos(gid)?);
        let slot = self.slots[slot_idx].take().expect("by_gid maps to slot");
        Some(MigratedStream {
            gid,
            slot: slot_idx,
            state: slot.state,
            events: std::mem::take(&mut self.pending[slot_idx]),
        })
    }

    /// Admits a migrated stream, with its pending list, into a fresh slot.
    pub fn admit_stream(&mut self, migrated: MigratedStream<'rt>) {
        let slot_idx = self.slots.len();
        let pos = self.by_gid.partition_point(|&(gid, _)| gid < migrated.gid);
        self.by_gid.insert(pos, (migrated.gid, slot_idx));
        self.slots.push(Some(Slot {
            gid: migrated.gid,
            state: migrated.state,
        }));
        self.pending.push(migrated.events);
    }

    /// The coordinator's end-of-epoch view, gathered in one pass over the
    /// slots: the load summary, with the earliest pending time (the engine
    /// is idle exactly when its `pending_events` is 0), and the migration
    /// shortlist, the busiest streams it owns (global ids, busiest first,
    /// gid ascending on ties), capped at `limit`. Busyness weighs queued
    /// jobs double, plus the in-flight job and the quarantine flag; idle
    /// streams never appear.
    pub fn report(&self, limit: usize) -> (ShardLoad, Vec<usize>) {
        let mut load = ShardLoad {
            jobs_done: self.jobs_done,
            ..ShardLoad::default()
        };
        let mut busy: Vec<(usize, usize)> = Vec::new();
        let mut first_key: Option<u64> = None;
        for (slot, list) in self.slots.iter().zip(&self.pending) {
            load.pending_events += list.len();
            if let Some(key) = list.first_key() {
                first_key = Some(first_key.map_or(key, |first| first.min(key)));
            }
            let Some(slot) = slot else { continue };
            let state = &slot.state;
            load.streams += 1;
            load.active += usize::from(state.in_flight.is_some());
            load.queued += state.queue.len();
            let b = state.queue.len() * 2
                + usize::from(state.in_flight.is_some())
                + usize::from(state.quarantine.is_some());
            if limit > 0 && b > 0 {
                busy.push((b, slot.gid));
            }
        }
        load.next_event_s = first_key.map(from_order_bits);
        // Gids are unique, so this order is total and the `limit` first
        // entries are the same whether or not the rest is sorted.
        let busiest_first =
            |a: &(usize, usize), b: &(usize, usize)| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1));
        if busy.len() > limit {
            busy.select_nth_unstable_by(limit, busiest_first);
            busy.truncate(limit);
        }
        busy.sort_unstable_by(busiest_first);
        (load, busy.into_iter().map(|(_, gid)| gid).collect())
    }

    /// Consumes the engine and returns each owned stream's result,
    /// keyed by global stream id, gid-ascending.
    pub fn finish(self) -> Vec<(usize, StreamResult)> {
        let specs = self.rt.specs;
        let mut slots = self.slots;
        self.by_gid
            .iter()
            .map(|&(gid, slot_idx)| {
                let mut state = slots[slot_idx].take().expect("by_gid maps to slot").state;
                state.result.refits = state.ctrl.refits();
                state.result.name = specs[gid].name.clone();
                (gid, state.result)
            })
            .collect()
    }

    /// Processes one event of slot `stream`, scheduling what it creates
    /// into `events`. Stream slots and the counters are disjoint fields,
    /// so the borrow splits cleanly between the slot being served and the
    /// scheduling context.
    fn step(
        &mut self,
        stream: usize,
        events: &mut StreamQueue<Event>,
        time: f64,
        event: Event,
    ) -> Result<(), ServeError> {
        self.horizon_s = self.horizon_s.max(time);
        self.events += 1;
        // Dispatch spans, keyed by event kind. The wall span measures
        // host time in this handler; the virtual record counts the
        // dispatch on the deterministic clock (and is additionally gated
        // on the sink so NullSink replay — crash recovery — stays
        // invisible to the profile). Everything, including the name
        // match, sits behind one enabled check: this runs per event, and
        // the disabled hot path must stay a single load-and-branch.
        let _dispatch = if predvfs_obs::profiling_enabled() {
            let (wall_name, kind_name): (&'static str, &'static str) = match &event {
                Event::Arrival { .. } => ("serve.dispatch.arrival", "arrival"),
                Event::SliceDone { .. } => ("serve.dispatch.slice_done", "slice_done"),
                Event::SwitchDone { .. } => ("serve.dispatch.switch_done", "switch_done"),
                Event::JobDone { .. } => ("serve.dispatch.job_done", "job_done"),
                Event::Watchdog { .. } => ("serve.dispatch.watchdog", "watchdog"),
            };
            if self.sink.enabled() {
                predvfs_obs::record_virtual(&["serve", "dispatch", kind_name], 0.0);
            }
            predvfs_obs::SpanGuard::enter(wall_name)
        } else {
            predvfs_obs::SpanGuard::inert()
        };
        let rt = self.rt;
        let mut cx = Loop {
            sink: self.sink,
            injector: self.injector,
            faults_on: self.faults_on,
            degrade: self.degrade,
            lean: self.lean,
            defer: self.defer,
            events,
            boosts: &mut self.boost_requests,
        };
        match event {
            Event::Arrival { job } => {
                let slot = self.slots[stream].as_mut().expect("event for vacated slot");
                let gid = slot.gid;
                let s = rt.stream(gid);
                let spec = s.spec;
                // Schedule the successor before anything this handler
                // schedules, so on a burst tie the next arrival outranks
                // this job's service events. An arrival burst collapses
                // the successor onto this arrival's instant; other jobs
                // stay anchored to the nominal schedule, so a burst is a
                // transient, not a cumulative shift.
                if job + 1 < spec.jobs {
                    let next = job + 1;
                    let t = if cx.faults_on && cx.injector.arrival_burst(gid, next) {
                        time
                    } else {
                        next as f64 * spec.period_s
                    };
                    cx.events.push(t, Event::Arrival { job: next });
                }
                let adm = Admitted {
                    job,
                    arrival_s: time,
                    deadline_abs_s: time + spec.deadline_s,
                    relaxed: false,
                };
                let state = &mut slot.state;
                // Stateless re-query: same coordinates, same answer
                // as at schedule time — the burst is traced from the
                // serial loop to keep emission order deterministic.
                if cx.faults_on && job > 0 && cx.injector.arrival_burst(gid, job) {
                    state.note_fault(&spec.name, time, cx.sink, &FaultKind::ArrivalBurst, job);
                }
                if cx.sink.enabled() {
                    cx.sink.counter_add("predvfs_serve_arrivals_total", 1);
                    cx.sink.emit(
                        TraceEvent::new(time, &spec.name, kinds::ARRIVAL)
                            .with_u64("job", job as u64),
                    );
                }
                if state.in_flight.is_none() {
                    cx.start_service(s, gid, state, adm, time)?;
                } else if state.queue.len() < spec.queue_bound {
                    state.queue.push_back(adm);
                } else {
                    match spec.policy {
                        OverloadPolicy::Shed => {
                            state.result.shed += 1;
                            if cx.sink.enabled() {
                                cx.sink.counter_add("predvfs_serve_shed_total", 1);
                                cx.sink.emit(
                                    TraceEvent::new(time, &spec.name, kinds::SHED)
                                        .with_u64("job", job as u64),
                                );
                            }
                        }
                        OverloadPolicy::Relax { factor } => {
                            state.result.relaxed += 1;
                            let stretched = spec.deadline_s * factor;
                            if cx.sink.enabled() {
                                cx.sink.counter_add("predvfs_serve_relaxed_total", 1);
                                cx.sink.emit(
                                    TraceEvent::new(time, &spec.name, kinds::RELAX)
                                        .with_u64("job", job as u64)
                                        .with_f64("deadline_s", stretched),
                                );
                            }
                            state.queue.push_back(Admitted {
                                deadline_abs_s: time + stretched,
                                relaxed: true,
                                ..adm
                            });
                        }
                    }
                }
                if cx.sink.enabled() {
                    cx.sink
                        .observe("predvfs_serve_queue_depth", state.queue.len() as f64);
                }
            }
            // Clock markers: the accelerator's phase changes but no
            // scheduling decision hangs off them. SliceDone is still
            // traced — slice latency is an overhead observable.
            Event::SliceDone { epoch } => {
                let slot = self.slots[stream].as_ref().expect("event for vacated slot");
                if slot.state.epoch == epoch && cx.sink.enabled() {
                    cx.sink.emit(TraceEvent::new(
                        time,
                        &rt.specs[slot.gid].name,
                        kinds::SLICE_DONE,
                    ));
                }
            }
            Event::SwitchDone { .. } => {}
            Event::JobDone { epoch } => {
                let slot = self.slots[stream].as_mut().expect("event for vacated slot");
                let gid = slot.gid;
                let s = rt.stream(gid);
                let state = &mut slot.state;
                let stale = match &state.in_flight {
                    Some(fly) => fly.epoch != epoch,
                    None => epoch != state.epoch,
                };
                if stale {
                    // A completion superseded by a watchdog
                    // escalation (its epoch was bumped past this
                    // event's): drop it.
                    return Ok(());
                }
                if state.in_flight.is_none() {
                    // A current-epoch completion with no job in
                    // flight: the accelerator signalled "done" out
                    // of thin air. Contain it — count, trace, and
                    // quarantine the stream — instead of panicking.
                    state.result.internal_errors += 1;
                    if cx.sink.enabled() {
                        cx.sink
                            .counter_add("predvfs_serve_internal_errors_total", 1);
                        cx.sink.emit(
                            TraceEvent::new(time, &s.spec.name, kinds::INTERNAL_ERROR)
                                .with_str("cause", "job_done_without_job"),
                        );
                    }
                    state.enter_quarantine(&s.spec.name, time, cx.sink, kinds::INTERNAL_ERROR);
                    return Ok(());
                }
                let fly = state.in_flight.take().expect("checked above");
                self.jobs_done += 1;
                let rel_deadline = fly.adm.deadline_abs_s - fly.adm.arrival_s;
                let response = time - fly.adm.arrival_s;
                let missed = response > rel_deadline * (1.0 + MISS_TOLERANCE);
                let energy_pj = fly.job_pj + fly.slice_pj + fly.transition_pj;
                if predvfs_obs::profiling_enabled() && cx.sink.enabled() {
                    // Virtual-clock span: response time is deterministic,
                    // so this sum is byte-identical across shard counts.
                    predvfs_obs::record_virtual(&["serve", "job", "response"], response);
                }
                if cx.sink.enabled() {
                    let name = &s.spec.name;
                    cx.sink.counter_add("predvfs_serve_jobs_done_total", 1);
                    cx.sink.counter_add_with(
                        "predvfs_serve_stream_jobs_done_total",
                        &[("stream", name)],
                        1,
                    );
                    if missed {
                        cx.sink.counter_add("predvfs_serve_misses_total", 1);
                        cx.sink.counter_add_with(
                            "predvfs_serve_stream_misses_total",
                            &[("stream", name)],
                            1,
                        );
                    }
                    cx.sink.observe("predvfs_serve_response_seconds", response);
                    cx.sink
                        .observe("predvfs_serve_slack_seconds", rel_deadline - response);
                    cx.sink.observe("predvfs_serve_energy_pj", energy_pj);
                    let mut ev = TraceEvent::new(time, name, kinds::JOB_DONE)
                        .with_u64("job", fly.adm.job as u64)
                        .with_f64("response_s", response)
                        .with_f64("queue_s", fly.start_s - fly.adm.arrival_s)
                        .with_f64("deadline_s", rel_deadline)
                        .with_f64("slack_s", rel_deadline - response)
                        .with_bool("missed", missed)
                        .with_bool("relaxed", fly.adm.relaxed)
                        .with_bool("degraded", fly.degraded)
                        .with_u64("level", fly.key as u64)
                        .with_f64("volts", fly.volts)
                        .with_f64("energy_pj", energy_pj)
                        .with_f64("slice_pj", fly.slice_pj)
                        .with_u64("actual_cycles", fly.actual_cycles);
                    if fly.escalated {
                        ev = ev.with_bool("escalated", true);
                    }
                    if fly.safe_mode {
                        ev = ev.with_bool("safe_mode", true);
                    }
                    if let Some(p) = fly.predicted_cycles {
                        ev = ev.with_f64("predicted_cycles", p);
                    }
                    cx.sink.emit(ev);
                }
                let actual_cycles = fly.actual_cycles;
                state.result.done += 1;
                if missed {
                    state.result.missed += 1;
                }
                state.result.energy_pj += energy_pj;
                if !cx.lean {
                    state.result.records.push(ServeRecord {
                        job: fly.adm.job,
                        arrival_s: fly.adm.arrival_s,
                        start_s: fly.start_s,
                        done_s: time,
                        deadline_s: rel_deadline,
                        relaxed: fly.adm.relaxed,
                        missed,
                        degraded: fly.degraded,
                        escalated: fly.escalated,
                        safe_mode: fly.safe_mode,
                        volts: fly.volts,
                        energy_pj,
                        slice_energy_pj: fly.slice_pj,
                        predicted_cycles: fly.predicted_cycles,
                        actual_cycles,
                    });
                }
                // Quarantine bookkeeping: consecutive misses trip
                // it, probe completions recover from it.
                if missed {
                    state.consec_misses += 1;
                } else {
                    state.consec_misses = 0;
                }
                match state.quarantine {
                    None => {
                        if cx.degrade && state.consec_misses >= QUARANTINE_MISSES {
                            state.enter_quarantine(
                                &s.spec.name,
                                time,
                                cx.sink,
                                "consecutive_misses",
                            );
                        }
                    }
                    Some(clean) => {
                        if missed {
                            state.quarantine = Some(0);
                        } else if clean + 1 >= PROBE_JOBS {
                            state.exit_quarantine(&s.spec.name, time, cx.sink);
                        } else {
                            state.quarantine = Some(clean + 1);
                        }
                    }
                }
                state.ctrl.observe(actual_cycles);
                state.note_ctrl_transitions(&s.spec.name, time, cx.sink);
                // Prediction-quality and burn-rate accounting, for the
                // streams that keep trackers (a lean engine keeps none).
                if let Some(tr) = state.trackers.as_deref_mut() {
                    if !matches!(state.ctrl, Ctrl::Adaptive(_)) {
                        if let Some(p) = fly.predicted_cycles {
                            tr.calib.record(p, actual_cycles as f64);
                        }
                    }
                    let mon = match &state.ctrl {
                        Ctrl::Adaptive(c) => c.trainer().monitor(),
                        _ => &tr.calib,
                    };
                    let calib = (
                        mon.under_rate(),
                        mon.coverage(),
                        mon.mape(),
                        mon.residual_ratio(),
                        mon.alert(),
                        mon.config().coverage_floor,
                    );
                    let slo_edge = tr.slo.record(time, missed);
                    if cx.sink.enabled() {
                        let name = &s.spec.name;
                        let labels = [("stream", name.as_str())];
                        let (under, coverage, mape, ratio, alert, floor) = calib;
                        cx.sink.gauge_set_with(
                            "predvfs_calibration_underpred_rate",
                            &labels,
                            under,
                        );
                        cx.sink
                            .gauge_set_with("predvfs_calibration_coverage", &labels, coverage);
                        cx.sink
                            .gauge_set_with("predvfs_calibration_mape", &labels, mape);
                        cx.sink.gauge_set_with(
                            "predvfs_calibration_residual_ratio",
                            &labels,
                            ratio,
                        );
                        if alert != tr.calib_alert {
                            if alert {
                                cx.sink
                                    .counter_add("predvfs_serve_calibration_alerts_total", 1);
                            }
                            cx.sink.emit(
                                TraceEvent::new(time, name, kinds::CALIBRATION_ALERT)
                                    .with_bool("engaged", alert)
                                    .with_f64("coverage", coverage)
                                    .with_f64("floor", floor),
                            );
                        }
                        let fast = tr.slo.fast_burn(time);
                        let slow = tr.slo.slow_burn(time);
                        cx.sink
                            .gauge_set_with("predvfs_slo_burn_fast", &labels, fast);
                        cx.sink
                            .gauge_set_with("predvfs_slo_burn_slow", &labels, slow);
                        if let Some(engaged) = slo_edge {
                            if engaged {
                                cx.sink.counter_add("predvfs_serve_slo_alerts_total", 1);
                            }
                            cx.sink.emit(
                                TraceEvent::new(time, name, kinds::SLO_BURN)
                                    .with_bool("engaged", engaged)
                                    .with_f64("fast_burn", fast)
                                    .with_f64("slow_burn", slow),
                            );
                        }
                    }
                    tr.calib_alert = calib.4;
                }
                // A spurious completion interrupt: schedule a
                // phantom JobDone at the current epoch. If the
                // stream idles it surfaces as an internal error; if
                // another job dispatches first the epoch moves on
                // and the phantom is dropped as stale.
                if cx.faults_on && cx.injector.spurious_done(gid, fly.adm.job) {
                    state.note_fault(
                        &s.spec.name,
                        time,
                        cx.sink,
                        &FaultKind::SpuriousDone,
                        fly.adm.job,
                    );
                    cx.events.push(time, Event::JobDone { epoch: state.epoch });
                }
                if let Some(next) = state.queue.pop_front() {
                    cx.start_service(s, gid, state, next, time)?;
                }
            }
            Event::Watchdog { epoch } => {
                let slot = self.slots[stream].as_mut().expect("event for vacated slot");
                let gid = slot.gid;
                cx.check_watchdog(rt.stream(gid), gid, &mut slot.state, epoch, time);
            }
        }
        Ok(())
    }
}

/// The scheduling context of one event dispatch: everything the service
/// helpers need except the slot being served, so one stream's state and
/// the engine's shared machinery can be borrowed simultaneously.
struct Loop<'a, 'rt> {
    sink: &'rt dyn ObsSink,
    injector: &'rt dyn FaultInjector,
    faults_on: bool,
    degrade: bool,
    lean: bool,
    defer: bool,
    events: &'a mut StreamQueue<Event>,
    boosts: &'a mut Vec<BoostRequest>,
}

impl Loop<'_, '_> {
    /// Mid-job deadline check: if the in-flight attempt `epoch` is
    /// projected to miss, either escalate in place (legacy mode) or
    /// record a [`BoostRequest`] for the coordinator (deferred mode).
    fn check_watchdog(
        &mut self,
        s: StreamView<'_>,
        gid: usize,
        state: &mut StreamState<'_>,
        epoch: u64,
        now: f64,
    ) {
        {
            let Some(fly) = state.in_flight.as_ref() else {
                return; // attempt already completed
            };
            if fly.epoch != epoch || fly.escalated {
                return;
            }
            if fly.done_s <= fly.adm.deadline_abs_s {
                return; // on track
            }
            let esc_point = s.exp.dvfs.point(s.exp.dvfs.escalation());
            let cur_point = s.exp.dvfs.point(key_choice(&s.exp.dvfs, fly.key));
            if esc_point.freq_ratio <= cur_point.freq_ratio {
                return; // nowhere faster to go
            }
            if self.defer && fly.boost_requested {
                return;
            }
        }
        if self.defer {
            // The grant decision belongs to the coordinator: record the
            // request (and trace it) with no in-epoch behavioral effect.
            let fly = state.in_flight.as_mut().expect("checked above");
            fly.boost_requested = true;
            let (job, done_s, deadline) = (fly.adm.job, fly.done_s, fly.adm.deadline_abs_s);
            self.boosts.push(BoostRequest {
                gid,
                t_s: now,
                epoch,
            });
            if self.sink.enabled() {
                self.sink
                    .counter_add("predvfs_serve_boost_requests_total", 1);
                self.sink.emit(
                    TraceEvent::new(now, &s.spec.name, kinds::BOOST_REQUEST)
                        .with_u64("job", job as u64)
                        .with_f64("projected_done_s", done_s)
                        .with_f64("deadline_s", deadline),
                );
            }
            return;
        }
        self.escalate(s, state, now);
    }

    /// Switches the remaining work of the in-flight job to the
    /// escalation level (boost), bumps the epoch so the superseded
    /// completion goes stale, and schedules the new completion. The
    /// caller has verified the attempt is current, un-escalated, and
    /// projected to miss; the time-dependent checks (work remains,
    /// switching still pays) re-run here against `now`.
    fn escalate(&mut self, s: StreamView<'_>, state: &mut StreamState<'_>, now: f64) -> bool {
        let Some(fly) = state.in_flight.as_mut() else {
            return false;
        };
        let esc_choice = s.exp.dvfs.escalation();
        let esc_key = level_key(&s.exp.dvfs, esc_choice);
        let esc_point = s.exp.dvfs.point(esc_choice);
        let cur_point = s.exp.dvfs.point(key_choice(&s.exp.dvfs, fly.key));
        let (_, base) = s.job(fly.adm.job);
        let spiked = fly.spike.map(|scale| base.scaled(scale));
        let trace = spiked.as_ref().unwrap_or(&base);
        let total = trace.cycles as f64;
        // Cycles retired so far at the effective (possibly jittered)
        // frequency; slice/switch phases retire nothing.
        let done_cycles = ((now - fly.exec_start_s).max(0.0) * fly.f_eff_hz).min(total);
        let remaining = total - done_cycles;
        if remaining <= 0.0 {
            return false;
        }
        let config = s.exp.config();
        let switch_s = config.switching.time_s(fly.key, esc_key);
        // Escalation runs at the clean escalation clock: the jitter
        // fault models a mis-trimmed level, and re-locking the PLL for
        // boost re-trims it.
        let f_esc = s.exp.energy.f_nominal_hz() * esc_point.freq_ratio;
        let new_done = now + switch_s + remaining / f_esc;
        if new_done >= fly.done_s {
            return false; // switching overhead would make things worse
        }
        // Energy: pro-rate the job between the two operating points and
        // charge the extra transition.
        let e_old = s
            .exp
            .energy
            .job_pj(trace.cycles, &trace.dp_active, cur_point, 1.0);
        let e_new = s
            .exp
            .energy
            .job_pj(trace.cycles, &trace.dp_active, esc_point, 1.0);
        let frac = done_cycles / total;
        fly.job_pj = e_old * frac + e_new * (1.0 - frac);
        fly.transition_pj += config.switching.transition_pj;
        let from_key = fly.key;
        fly.key = esc_key;
        fly.volts = esc_point.volts;
        fly.f_eff_hz = f_esc;
        fly.done_s = new_done;
        fly.escalated = true;
        state.epoch += 1;
        fly.epoch = state.epoch;
        let job = fly.adm.job;
        state.prev_key = esc_key;
        state.result.escalations += 1;
        if self.sink.enabled() {
            self.sink.counter_add("predvfs_serve_escalations_total", 1);
            self.sink.emit(
                TraceEvent::new(now, &s.spec.name, kinds::WATCHDOG_BOOST)
                    .with_u64("job", job as u64)
                    .with_u64("from_level", from_key as u64)
                    .with_u64("to_level", esc_key as u64)
                    .with_f64("remaining_cycles", remaining)
                    .with_f64("done_s", new_done),
            );
        }
        self.events
            .push(new_done, Event::JobDone { epoch: state.epoch });
        true
    }

    /// Makes the DVFS decision for one admitted job, charges time and
    /// energy exactly as the batch runner does, applies any injected
    /// faults, and schedules the job's slice-done / switch-done /
    /// job-done (and watchdog) events.
    fn start_service(
        &mut self,
        s: StreamView<'_>,
        gid: usize,
        state: &mut StreamState<'_>,
        adm: Admitted,
        now: f64,
    ) -> Result<(), ServeError> {
        let (tidx, base) = s.job(adm.job);
        let job = &s.exp.workloads.test[tidx];
        let faults_on = self.faults_on;
        // Whatever budget queueing left is what the controller gets; the
        // test-job index selects the job's slice-table entry.
        let ctx = JobContext {
            job,
            deadline_s: adm.deadline_abs_s - now,
            index: tidx,
        };
        state.started += 1;

        let degraded = state.ctrl.is_degraded();
        if degraded {
            state.consec_degraded += 1;
        } else {
            state.consec_degraded = 0;
        }
        if state.quarantine.is_none()
            && self.degrade
            && state.consec_degraded >= QUARANTINE_DEGRADED
        {
            state.enter_quarantine(&s.spec.name, now, self.sink, "sustained_degradation");
        }
        let safe_mode = state.quarantine.is_some();
        // In quarantine the controller is bypassed entirely: no slice,
        // no prediction, nominal level. The stream trades energy for a
        // deterministic return to deadline safety while probing.
        let (mut decision, slice_pj_hint) = if safe_mode {
            (
                Decision {
                    choice: s.exp.dvfs.nominal(),
                    slice_cycles: 0.0,
                    slice_dp_active: Vec::new(),
                    predicted_cycles: None,
                },
                None,
            )
        } else {
            state.ctrl.decide(&ctx)?
        };
        state.note_ctrl_transitions(&s.spec.name, now, self.sink);

        let f_hz = s.exp.energy.f_nominal_hz();
        let mut slice_s = decision.slice_cycles / f_hz;
        if faults_on && !safe_mode {
            match self.injector.slice_fault(gid, adm.job) {
                // A corrupted prediction only matters on the predictive
                // path; the PID fallback never reads the slice output.
                Some(kind @ FaultKind::SliceCorrupt { predict_scale }) if !degraded => {
                    if let Some(p) = decision.predicted_cycles {
                        let corrupted = p * predict_scale;
                        decision.choice =
                            s.exp.dvfs.choose(corrupted, f_hz, ctx.deadline_s, slice_s);
                        decision.predicted_cycles = Some(corrupted);
                        state.note_fault(&s.spec.name, now, self.sink, &kind, adm.job);
                    }
                }
                // A hung slice costs time after the decision was read
                // out; the controller never learns it happened.
                Some(kind @ FaultKind::SliceTimeout { time_stretch }) => {
                    slice_s *= time_stretch;
                    state.note_fault(&s.spec.name, now, self.sink, &kind, adm.job);
                }
                _ => {}
            }
        }

        // Level switch, with rejected attempts retried under backoff.
        let config = s.exp.config();
        let target_key = level_key(&s.exp.dvfs, decision.choice);
        let mut key = state.prev_key;
        let mut switch_s = 0.0f64;
        let mut retries = 0u32;
        let mut switch_failed = false;
        if target_key != state.prev_key {
            let base_s = config.switching.time_s(state.prev_key, target_key);
            let mut attempt = 0u32;
            loop {
                if faults_on && self.injector.switch_rejected(gid, adm.job, attempt) {
                    state.note_fault(
                        &s.spec.name,
                        now,
                        self.sink,
                        &FaultKind::SwitchReject,
                        adm.job,
                    );
                    if !self.degrade || attempt >= MAX_SWITCH_RETRIES {
                        switch_failed = true;
                        break;
                    }
                    switch_s += RETRY_BACKOFF_S * f64::from(1u32 << attempt.min(10));
                    attempt += 1;
                    retries += 1;
                    continue;
                }
                if let Some(stretch) = faults_on
                    .then(|| self.injector.switch_stall(gid, adm.job))
                    .flatten()
                {
                    state.note_fault(
                        &s.spec.name,
                        now,
                        self.sink,
                        &FaultKind::SwitchStall { stretch },
                        adm.job,
                    );
                    switch_s += base_s * stretch;
                } else {
                    switch_s += base_s;
                }
                key = target_key;
                break;
            }
        }
        let level_changed = key != state.prev_key;
        let choice = key_choice(&s.exp.dvfs, key);
        let point = s.exp.dvfs.point(choice);
        if self.sink.enabled() {
            if retries > 0 {
                self.sink
                    .counter_add("predvfs_serve_switch_retries_total", u64::from(retries));
                self.sink.emit(
                    TraceEvent::new(now, &s.spec.name, kinds::SWITCH_RETRY)
                        .with_u64("job", adm.job as u64)
                        .with_u64("retries", u64::from(retries)),
                );
            }
            if switch_failed {
                self.sink
                    .counter_add("predvfs_serve_switch_failed_total", 1);
                self.sink.emit(
                    TraceEvent::new(now, &s.spec.name, kinds::SWITCH_FAILED)
                        .with_u64("job", adm.job as u64)
                        .with_u64("stuck_level", key as u64)
                        .with_u64("wanted_level", target_key as u64),
                );
            }
            if level_changed {
                self.sink
                    .counter_add("predvfs_serve_level_switches_total", 1);
                self.sink.emit(
                    TraceEvent::new(now, &s.spec.name, kinds::LEVEL_SWITCH)
                        .with_u64("from_level", state.prev_key as u64)
                        .with_u64("to_level", key as u64)
                        .with_f64("volts", point.volts)
                        .with_f64("switch_s", switch_s),
                );
            }
        }
        state.prev_key = key;

        // Ground truth, possibly spiked by a fault.
        let spike = if faults_on {
            self.injector.trace_spike(gid, adm.job).inspect(|&scale| {
                state.note_fault(
                    &s.spec.name,
                    now,
                    self.sink,
                    &FaultKind::TraceSpike { cycle_scale: scale },
                    adm.job,
                );
            })
        } else {
            None
        };
        let spiked = spike.map(|scale| base.scaled(scale));
        let trace = spiked.as_ref().unwrap_or(&base);

        // Clock jitter shifts execution time; energy stays keyed to the
        // operating point (the regulator's voltage doesn't move, the
        // clock trim does).
        let mut f_eff = f_hz * point.freq_ratio;
        if faults_on {
            if let Some(fscale) = self.injector.clock_jitter(gid, adm.job) {
                state.note_fault(
                    &s.spec.name,
                    now,
                    self.sink,
                    &FaultKind::ClockJitter { freq_scale: fscale },
                    adm.job,
                );
                f_eff *= fscale;
            }
        }
        let exec_s = trace.cycles as f64 / f_eff;
        // The slice runs in its own always-nominal domain. The cached
        // controller ships the slice energy precomputed with its class
        // table; everyone else pays the per-dispatch evaluation.
        let slice_pj = if decision.slice_cycles > 0.0 {
            match slice_pj_hint {
                Some(pj) => pj,
                None => {
                    let nominal = OperatingPoint {
                        volts: 1.0,
                        freq_ratio: 1.0,
                    };
                    s.exp.slice_energy.job_pj(
                        decision.slice_cycles.round() as u64,
                        &decision.slice_dp_active,
                        nominal,
                        1.0,
                    )
                }
            }
        } else {
            0.0
        };
        let job_pj = s
            .exp
            .energy
            .job_pj(trace.cycles, &trace.dp_active, point, 1.0);
        let transition_pj = config.switching.transition_pj * f64::from(level_changed);

        state.epoch += 1;
        let epoch = state.epoch;
        let exec_start_s = now + slice_s + switch_s;
        let done_s = exec_start_s + exec_s;
        state.in_flight = Some(InFlight {
            adm,
            epoch,
            start_s: now,
            exec_start_s,
            done_s,
            key,
            f_eff_hz: f_eff,
            degraded,
            safe_mode,
            escalated: false,
            boost_requested: false,
            volts: point.volts,
            job_pj,
            slice_pj,
            transition_pj,
            predicted_cycles: decision.predicted_cycles,
            actual_cycles: trace.cycles,
            spike,
        });

        if slice_s > 0.0 {
            self.events.push(now + slice_s, Event::SliceDone { epoch });
        }
        if switch_s > 0.0 {
            self.events.push(exec_start_s, Event::SwitchDone { epoch });
        }
        self.events.push(done_s, Event::JobDone { epoch });
        if self.degrade {
            let headroom = adm.deadline_abs_s - now;
            if headroom > 0.0 {
                self.events
                    .push(now + WATCHDOG_FRAC * headroom, Event::Watchdog { epoch });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_accel::WorkloadSize;
    use predvfs_sim::Platform;

    fn admitted(job: usize) -> Admitted {
        Admitted {
            job,
            arrival_s: 0.0,
            deadline_abs_s: 1.0,
            relaxed: false,
        }
    }

    fn in_flight(job: usize) -> InFlight {
        InFlight {
            adm: admitted(job),
            epoch: 1,
            start_s: 0.0,
            exec_start_s: 0.0,
            done_s: 0.5,
            key: 0,
            f_eff_hz: 1e9,
            degraded: false,
            safe_mode: false,
            escalated: false,
            boost_requested: false,
            volts: 1.0,
            job_pj: 0.0,
            slice_pj: 0.0,
            transition_pj: 0.0,
            predicted_cycles: None,
            actual_cycles: 0,
            spike: None,
        }
    }

    fn state_of<'e, 'rt>(eng: &'e mut ShardEngine<'rt>, gid: usize) -> &'e mut StreamState<'rt> {
        let slot = eng.by_gid[eng.gid_pos(gid).expect("owned stream")].1;
        &mut eng.slots[slot].as_mut().expect("owned slot").state
    }

    /// Each class's tables cover only the test jobs its streams submit:
    /// the longest stream of the class, capped at the test set, whatever
    /// controller reads it. A class that only PID streams read gets none,
    /// and only a predictive stream's class gets a decision table.
    #[test]
    fn warm_sizes_each_class_table_to_the_jobs_its_streams_read() {
        let stream = |bench: &str, jobs: usize, controller: ControllerKind| StreamSpec {
            name: format!("{bench}-{jobs}"),
            jobs,
            controller,
            ..StreamSpec::new(predvfs_accel::by_name(bench).expect("benchmark"))
        };
        let scenario = Scenario {
            platform: Platform::Asic,
            size: WorkloadSize::Quick,
            streams: vec![
                stream("h264", 5, ControllerKind::Predictive),
                stream("h264", 12, ControllerKind::Cached),
                stream("md", 60, ControllerKind::Hybrid),
                stream("sha", 8, ControllerKind::Pid),
                stream("sha", 30, ControllerKind::Pid),
            ],
            faults: None,
        };
        let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
        let [h264, md, sha] = &rt.classes[..] else {
            panic!("expected 3 classes, got {}", rt.classes.len());
        };
        assert_eq!(md.exp.workloads.test.len(), 20);
        assert!(h264.exp.workloads.test.len() > 12);
        rt.warm_cached_tables(None).expect("warm");

        assert_eq!(h264.slices.get().map(|t| t.runs().len()), Some(12));
        assert_eq!(h264.cached.get().map(Vec::len), Some(12));
        assert_eq!(md.slices.get().map(|t| t.runs().len()), Some(20));
        assert!(md.cached.get().is_none(), "no md stream is predictive");
        assert!(sha.slices.get().is_none() && sha.cached.get().is_none());

        // Forced onto the predictive path, every class gets both tables.
        rt.warm_cached_tables(Some(ControllerKind::Predictive))
            .expect("warm");
        for class in [h264, md, sha] {
            assert_eq!(class.cached.get().map(Vec::len), Some(class.reads));
        }
    }

    /// A stream whose last arrival plus deadline reaches 2^17 s, where one
    /// `f64` step of seconds exceeds 1e-9 of its 16.7 ms deadline, is
    /// rejected with that bound in the error; one just below it prepares.
    #[test]
    fn prepare_rejects_a_horizon_f64_cannot_resolve() {
        let scenario = |period_ms: &str| {
            Scenario::parse(&format!("stream sha jobs=3 period_ms={period_ms}\n"))
                .expect("scenario parses")
        };
        // Two periods of 65,535.99 s plus 16.7 ms: just below 2^17 s.
        let below = scenario("65535990");
        ServeRuntime::prepare(&below, &TraceCache::new()).expect("a resolvable horizon prepares");
        for period_ms in ["65536000", "1e18", "1e300"] {
            let above = scenario(period_ms);
            match ServeRuntime::prepare(&above, &TraceCache::new()) {
                Err(ServeError::InvalidSpec { stream, msg }) => {
                    assert_eq!(stream, "sha");
                    assert!(msg.contains("only below 1.31072e5 s"), "{period_ms}: {msg}");
                }
                Err(e) => panic!("period_ms={period_ms}: wrong error {e}"),
                Ok(_) => panic!("period_ms={period_ms} must be rejected"),
            }
        }
    }

    /// `report` against a load, earliest pending time and shortlist
    /// worked out by hand: streams with queued jobs, in-flight jobs and
    /// quarantine, slots out of gid order (ties must rank by gid, not
    /// slot), and one vacated slot, whose events left with its stream.
    #[test]
    fn report_matches_hand_computed_load_and_candidates() {
        let bench = predvfs_accel::by_name("sha").expect("sha benchmark");
        let scenario = Scenario {
            platform: Platform::Asic,
            size: WorkloadSize::Quick,
            streams: (0..6)
                .map(|i| StreamSpec {
                    name: format!("s{i}"),
                    jobs: 4,
                    ..StreamSpec::new(bench)
                })
                .collect(),
            faults: None,
        };
        let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
        let config = EngineConfig {
            force: Some(ControllerKind::Cached),
            lean: true,
            defer_escalations: true,
            one_ahead_arrivals: true,
            ..EngineConfig::default()
        };
        let mut eng = rt
            .engine(&[5, 3, 0, 4, 1, 2], config, &NullSink, &NullInjector)
            .expect("engine");
        // One arrival pending per slot, the earliest in gid 1's slot;
        // slot 0 (gid 5) gets one more event, and gid 1's slot is vacated
        // with its list.
        for (list, t) in eng
            .pending
            .iter_mut()
            .zip([0.5, 0.25, 0.375, 0.125, 0.0625, 0.75])
        {
            *list = StreamQueue::default();
            list.push(t, Event::Arrival { job: 1 });
        }
        eng.pending[0].push(1.0, Event::JobDone { epoch: 1 });
        assert!(eng.extract_stream(1).is_some());
        // Busyness: queued × 2 + in flight + quarantined.
        let gid5 = state_of(&mut eng, 5); // 2 × 2 + 1 = 5
        gid5.queue.extend([admitted(1), admitted(2)]);
        gid5.in_flight = Some(in_flight(0));
        state_of(&mut eng, 3).quarantine = Some(0); // 1
        state_of(&mut eng, 0).in_flight = Some(in_flight(0)); // 1
        let gid4 = state_of(&mut eng, 4); // 2 + 1 = 3
        gid4.queue.push_back(admitted(1));
        gid4.quarantine = Some(2);
        let gid2 = state_of(&mut eng, 2); // 1 + 1 = 2
        gid2.in_flight = Some(in_flight(0));
        gid2.quarantine = Some(1);

        let load = ShardLoad {
            streams: 5,
            active: 3,
            queued: 3,
            pending_events: 6,
            jobs_done: 0,
            next_event_s: Some(0.125),
        };
        for (limit, candidates) in [
            (0, vec![]),
            (3, vec![5, 4, 2]),
            (4, vec![5, 4, 2, 0]),
            (5, vec![5, 4, 2, 0, 3]),
            (16, vec![5, 4, 2, 0, 3]),
        ] {
            assert_eq!(eng.report(limit), (load, candidates), "limit {limit}");
        }
        assert!(!eng.is_idle());

        let empty = rt
            .engine(&[], EngineConfig::default(), &NullSink, &NullInjector)
            .expect("empty engine");
        assert_eq!(empty.report(4), (ShardLoad::default(), vec![]));
        assert_eq!(empty.report(4).0.next_event_s, None);
        assert!(empty.is_idle());
    }
}
