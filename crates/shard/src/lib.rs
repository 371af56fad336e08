//! # predvfs-shard
//!
//! The sharded serve tier: N [`ShardEngine`]s — each owning a partition
//! of the scenario's streams, its own virtual clock, per-stream pending
//! events, admission queues, and trace stream — run under a
//! budget-owning coordinator that advances them in lock-step epochs.
//!
//! Each epoch the coordinator:
//!
//! 1. lets every shard run its event loop up to the epoch boundary,
//!    stream-major: one stream's events to the boundary, then the next
//!    stream's,
//! 2. collects the shards' deferred escalation requests and grants the
//!    first `boost_tokens_per_epoch` of them in global `(t_s, gid)`
//!    order (the power/level budget),
//! 3. migrates the busiest streams off a sustained-overloaded shard
//!    onto the least loaded one, and
//! 4. stops once every shard is idle with nothing left to grant or move.
//!
//! Determinism is the contract, and it is *shard-count invariant*:
//! streams never interact inside the event loop (which is why a shard
//! can run them one after another), fault injection is keyed by global
//! stream id, and budget grants are decided from a globally sorted
//! request list and applied at the epoch boundary by whichever shard
//! owns the stream after migration. So every stream replays the exact
//! same event sequence whether the scenario runs on 1, 4, or 16 shards,
//! and the merged trace (see [`merged_trace_jsonl`]) is byte-identical
//! across shard counts, and to the legacy single engine's when no boost
//! fires — the `shard_determinism` integration suite pins this. A
//! shard's own trace is in (epoch, stream slot, time) order; only the
//! merge puts events in time order.
//!
//! ## Crash recovery
//!
//! The tier survives injected shard crashes
//! ([`predvfs_faults::FaultInjector::shard_crash`]) with *provably
//! deterministic* failover. Each worker keeps two recovery artifacts:
//!
//! * a [`ShardSnapshot`] — the engine's complete logical state
//!   (virtual clock, pending events, admission queues,
//!   SLO/quarantine/controller state, one-ahead arrivals), captured at
//!   epoch boundaries every [`ShardConfig::checkpoint_every`] epochs
//!   via the same [`MigratedStream`] extraction path migration uses; and
//! * an **epoch journal** of the externally visible boundary decisions
//!   it applied — the global boost-grant list, streams moved out, and
//!   clones of streams admitted in.
//!
//! When a crash fires, the worker rebuilds an engine from the last
//! snapshot (or from scratch when none exists — checkpointing is an
//! optimization, not a correctness requirement), replays the journal
//! quietly up to the crash epoch against a [`NullSink`] (the lost
//! engine already emitted those trace events), swaps the real sink
//! back, and resumes the barrier protocol — the other shards never see
//! anything but a slow epoch. Because streams never interact inside
//! the loop and every boundary decision is re-applied in its original
//! order, the recovered run's merged trace is **byte-identical** to
//! the fault-free run's once the shard-scoped checkpoint/crash/recover
//! meta-events are filtered out (which [`merged_trace`] does by
//! construction) — the `crash_recovery` suite pins this over
//! proptest-chosen (crash epoch, shard, shard count) triples.
//!
//! ```no_run
//! use predvfs_serve::ServeRuntime;
//! use predvfs_shard::{run_sharded, synth_scenario, ShardConfig, SynthSpec};
//! use predvfs_sim::TraceCache;
//!
//! let scenario = synth_scenario(&SynthSpec::new(1024));
//! let runtime = ServeRuntime::prepare(&scenario, &TraceCache::new())?;
//! let config = ShardConfig {
//!     shards: 4,
//!     ..ShardConfig::default()
//! };
//! let result = run_sharded(
//!     &runtime,
//!     &config,
//!     &[],
//!     &predvfs_obs::NullSink,
//!     &predvfs_faults::NullInjector,
//! )?;
//! println!("{} jobs over {} epochs", result.jobs_done, result.epochs);
//! # Ok::<(), predvfs_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::sync::{Barrier, Mutex};

use predvfs_faults::FaultInjector;
use predvfs_obs::{kinds, NullSink, ObsSink, TraceEvent};
use predvfs_serve::{
    BoostRequest, ControllerKind, DegradeConfig, EngineCheckpoint, EngineConfig, MigratedStream,
    ServeError, ServeRuntime, ShardEngine, ShardLoad, StreamResult,
};

mod synth;

pub use synth::{synth_scenario, SynthSpec};

/// When and how the coordinator moves streams between shards.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Whether rebalancing runs at all.
    pub enabled: bool,
    /// Busy-score ratio (busiest shard over least busy shard, floored at
    /// 1) at or above which an epoch counts as imbalanced.
    pub imbalance_ratio: f64,
    /// Consecutive imbalanced epochs required before streams move —
    /// transient bursts don't trigger migration.
    pub sustain_epochs: usize,
    /// Cap on streams moved per rebalance.
    pub max_moves_per_epoch: usize,
}

impl Default for MigrationConfig {
    fn default() -> MigrationConfig {
        MigrationConfig {
            enabled: true,
            imbalance_ratio: 4.0,
            sustain_epochs: 2,
            max_moves_per_epoch: 4,
        }
    }
}

/// Configuration for one sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard engines (streams are partitioned `gid % shards`).
    pub shards: usize,
    /// Epoch length in virtual seconds: the barrier cadence at which
    /// budget grants and migrations apply.
    pub epoch_s: f64,
    /// Escalation budget per epoch: at most this many watchdog boosts
    /// are granted per epoch, first-come in global `(t_s, gid)` order.
    /// `None` grants every request.
    pub boost_tokens_per_epoch: Option<usize>,
    /// Rebalancing policy.
    pub migration: MigrationConfig,
    /// Force every stream onto one controller kind (e.g.
    /// [`ControllerKind::Cached`] for scale runs).
    pub force: Option<ControllerKind>,
    /// Graceful-degradation thresholds, shared by every shard.
    pub degrade: DegradeConfig,
    /// Lean mode: skip per-job records and calibration/SLO tracking to
    /// hold memory flat at millions of streams. Aggregate counters
    /// (done, missed, shed, energy) stay exact.
    pub lean: bool,
    /// Capture a [`ShardSnapshot`] every this-many epochs (`None`
    /// disables checkpointing). Crash recovery works either way — with
    /// no snapshot the worker rebuilds from scratch and replays the
    /// full journal — so this knob only bounds replay cost.
    pub checkpoint_every: Option<u64>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 1,
            epoch_s: 0.05,
            boost_tokens_per_epoch: None,
            migration: MigrationConfig::default(),
            force: None,
            degrade: DegradeConfig::disabled(),
            lean: false,
            checkpoint_every: None,
        }
    }
}

/// The outcome of a sharded run.
#[derive(Debug)]
pub struct ShardedResult {
    /// Per-stream results in global stream-id order (scenario order),
    /// regardless of which shard finished each stream.
    pub streams: Vec<StreamResult>,
    /// Latest virtual timestamp processed by any shard.
    pub horizon_s: f64,
    /// Total events processed across shards.
    pub events: usize,
    /// Total jobs completed across shards.
    pub jobs_done: u64,
    /// Jobs completed per shard (post-migration ownership).
    pub shard_jobs_done: Vec<u64>,
    /// Coordination epochs executed.
    pub epochs: u64,
    /// Streams migrated between shards.
    pub migrations: usize,
    /// Deferred escalations granted by the budget.
    pub boosts_granted: usize,
    /// Deferred escalations denied by the budget.
    pub boosts_denied: usize,
    /// Granted escalations that still applied at the epoch boundary
    /// (a grant goes stale if its attempt completed within the epoch).
    pub boosts_applied: usize,
    /// Epoch-boundary snapshots captured across shards.
    pub checkpoints: usize,
    /// Injected shard crashes that fired.
    pub crashes: usize,
    /// Crashes recovered (always equals `crashes` unless the run
    /// errored mid-recovery).
    pub recoveries: usize,
    /// Epochs re-executed during journal replay, summed over recoveries.
    pub replayed_epochs: u64,
    /// Injected barrier stalls observed (no behavioral effect).
    pub epoch_stalls: usize,
    /// Migration transfers dropped in flight and retransmitted from the
    /// retained copy (no behavioral effect).
    pub transfer_retransmits: usize,
}

impl ShardedResult {
    /// Total jobs submitted across streams.
    pub fn submitted(&self) -> usize {
        self.streams.iter().map(|s| s.submitted).sum()
    }

    /// Total jobs completed across streams.
    pub fn completed(&self) -> usize {
        self.streams.iter().map(|s| s.completed()).sum()
    }

    /// Total deadline misses across streams.
    pub fn misses(&self) -> usize {
        self.streams.iter().map(|s| s.misses()).sum()
    }

    /// Total jobs shed across streams.
    pub fn shed(&self) -> usize {
        self.streams.iter().map(|s| s.shed).sum()
    }

    /// Deadline misses as a percentage of completed jobs (0 when
    /// nothing completed).
    pub fn miss_pct(&self) -> f64 {
        let done = self.completed();
        if done == 0 {
            0.0
        } else {
            100.0 * self.misses() as f64 / done as f64
        }
    }

    /// Shed jobs as a percentage of submitted jobs (0 when nothing was
    /// submitted).
    pub fn shed_pct(&self) -> f64 {
        let submitted = self.submitted();
        if submitted == 0 {
            0.0
        } else {
            100.0 * self.shed() as f64 / submitted as f64
        }
    }

    /// Total energy across streams, picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.streams.iter().map(|s| s.total_energy_pj()).sum()
    }
}

/// A shard's epoch-boundary checkpoint: the engine's complete logical
/// state — virtual clock, per-stream service state (admission queues,
/// in-flight jobs, SLO/quarantine/controller state), and pending events
/// including one-ahead arrivals — captured right after boundary
/// `epoch`'s decisions were applied, via the same [`MigratedStream`]
/// extraction path migration uses. [`ShardSnapshot::render`] is the
/// canonical byte serialization; the `snapshot_stability` regression
/// test pins that it is run-to-run identical.
pub struct ShardSnapshot<'rt> {
    /// The boundary this snapshot was captured at: the state equals the
    /// start of epoch `epoch + 1`.
    pub epoch: u64,
    /// The engine's full logical state.
    pub checkpoint: EngineCheckpoint<'rt>,
}

impl ShardSnapshot<'_> {
    /// Canonical byte rendering: an epoch header plus
    /// [`EngineCheckpoint::render`].
    pub fn render(&self) -> String {
        format!("epoch={}\n{}", self.epoch, self.checkpoint.render())
    }

    /// Stable digest of [`ShardSnapshot::render`].
    pub fn digest(&self) -> u64 {
        self.checkpoint.digest() ^ self.epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// One epoch's externally visible boundary decisions, as this shard
/// applied them — everything replay needs to re-derive the post-boundary
/// state from the pre-boundary state. Inbound migrations are stored as
/// clones because the donor shard has advanced past the boundary and
/// cannot re-extract them.
struct JournalEntry<'rt> {
    /// The full global grant list (replay re-filters by ownership, just
    /// like the live boundary did).
    grants: Vec<BoostRequest>,
    /// Streams extracted off this shard at the boundary.
    moves_out: Vec<usize>,
    /// Streams admitted into this shard at the boundary, in admission
    /// order.
    inbound: Vec<MigratedStream<'rt>>,
}

/// One shard's end-of-epoch report to the coordinator. The shard is idle
/// when no event is pending in it.
struct Report {
    load: ShardLoad,
    candidates: Vec<usize>,
    requests: Vec<BoostRequest>,
}

/// One coordinator-decided stream move.
#[derive(Debug, Clone, Copy)]
struct Move {
    gid: usize,
    from: usize,
    to: usize,
}

/// The coordinator's published decisions for one epoch boundary.
#[derive(Default)]
struct Plan {
    grants: Vec<BoostRequest>,
    moves: Vec<Move>,
    done: bool,
}

#[derive(Default)]
struct CoordStats {
    epochs: u64,
    migrations: usize,
    boosts_granted: usize,
    boosts_denied: usize,
    boosts_applied: usize,
    checkpoints: usize,
    crashes: usize,
    recoveries: usize,
    replayed_epochs: u64,
    epoch_stalls: usize,
    transfer_retransmits: usize,
}

/// Coordinator state shared by the shard workers. A single mutex
/// suffices: each field is only touched in its own barrier-delimited
/// phase, so contention is bounded by the report/transfer writes.
/// `transfer` is ordered (gid-ascending) so no iteration over it can
/// ever depend on hasher seeding — part of the snapshot-determinism
/// audit alongside `ShardEngine`'s gid map.
struct Coord<'rt> {
    reports: Vec<Option<Report>>,
    plan: Plan,
    transfer: BTreeMap<usize, MigratedStream<'rt>>,
    error: Option<ServeError>,
    streak: usize,
    stats: CoordStats,
}

struct Shared<'rt> {
    barrier: Barrier,
    coord: Mutex<Coord<'rt>>,
}

struct WorkerOut {
    streams: Vec<(usize, StreamResult)>,
    horizon_s: f64,
    events: usize,
    jobs_done: u64,
}

/// Runs the prepared scenario partitioned across `config.shards` shard
/// engines under the budget-owning coordinator.
///
/// `shard_sinks` carries one observability sink per shard (or is empty
/// to disable per-shard tracing); each shard's service events go only
/// to its own sink, so per-shard traces are independent streams that
/// [`merged_trace_jsonl`] recombines deterministically. `coord_sink`
/// receives the coordinator's shard-labeled gauges and counters — never
/// trace events, so merging stays shard-count invariant. The injector
/// is shared: shards query it with global stream ids, which is what
/// makes fault schedules shard-count invariant.
///
/// # Errors
///
/// Returns [`ServeError::InvalidSpec`] for a malformed `config`
/// (`shards == 0`, a non-positive epoch, or a sink-count mismatch), and
/// propagates the first engine failure from any shard — remaining
/// shards drain to an orderly stop first, so no thread is left behind
/// a barrier.
pub fn run_sharded<'rt>(
    runtime: &'rt ServeRuntime,
    config: &ShardConfig,
    shard_sinks: &[&'rt dyn ObsSink],
    coord_sink: &dyn ObsSink,
    injector: &'rt dyn FaultInjector,
) -> Result<ShardedResult, ServeError> {
    let invalid = |msg: &str| ServeError::InvalidSpec {
        stream: "<shard config>".to_owned(),
        msg: msg.to_owned(),
    };
    if config.shards == 0 {
        return Err(invalid("shards must be at least 1"));
    }
    if !(config.epoch_s.is_finite() && config.epoch_s > 0.0) {
        return Err(invalid("epoch_s must be positive and finite"));
    }
    if !shard_sinks.is_empty() && shard_sinks.len() != config.shards {
        return Err(invalid("shard_sinks must be empty or one per shard"));
    }

    // Build the slice and decision tables the streams read up front (once
    // per class) so shard workers never race on first-use construction
    // cost.
    runtime.warm_cached_tables(config.force)?;

    let n_streams = runtime.specs().count();
    let members: Vec<Vec<usize>> = {
        let mut m = vec![Vec::new(); config.shards];
        for gid in 0..n_streams {
            m[gid % config.shards].push(gid);
        }
        m
    };
    let shard_labels: Vec<String> = (0..config.shards).map(|i| i.to_string()).collect();

    let shared = Shared {
        barrier: Barrier::new(config.shards),
        coord: Mutex::new(Coord {
            reports: (0..config.shards).map(|_| None).collect(),
            plan: Plan::default(),
            transfer: BTreeMap::new(),
            error: None,
            streak: 0,
            stats: CoordStats::default(),
        }),
    };

    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.shards)
            .map(|shard| {
                let members = &members[shard];
                let sink: &'rt dyn ObsSink = if shard_sinks.is_empty() {
                    &NullSink
                } else {
                    shard_sinks[shard]
                };
                let shared = &shared;
                let shard_labels = &shard_labels;
                scope.spawn(move || {
                    run_worker(
                        shard,
                        runtime,
                        members,
                        config,
                        sink,
                        coord_sink,
                        injector,
                        shared,
                        shard_labels,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    let coord = shared.coord.into_inner().expect("coordinator lock");
    if let Some(e) = coord.error {
        return Err(e);
    }

    let mut keyed: Vec<(usize, StreamResult)> = Vec::with_capacity(n_streams);
    let mut shard_jobs_done = Vec::with_capacity(config.shards);
    let mut horizon_s = 0.0f64;
    let mut events = 0usize;
    let mut jobs_done = 0u64;
    for out in outs {
        keyed.extend(out.streams);
        shard_jobs_done.push(out.jobs_done);
        horizon_s = horizon_s.max(out.horizon_s);
        events += out.events;
        jobs_done += out.jobs_done;
    }
    keyed.sort_by_key(|&(gid, _)| gid);
    debug_assert!(keyed.iter().enumerate().all(|(i, &(gid, _))| i == gid));

    Ok(ShardedResult {
        streams: keyed.into_iter().map(|(_, r)| r).collect(),
        horizon_s,
        events,
        jobs_done,
        shard_jobs_done,
        epochs: coord.stats.epochs,
        migrations: coord.stats.migrations,
        boosts_granted: coord.stats.boosts_granted,
        boosts_denied: coord.stats.boosts_denied,
        boosts_applied: coord.stats.boosts_applied,
        checkpoints: coord.stats.checkpoints,
        crashes: coord.stats.crashes,
        recoveries: coord.stats.recoveries,
        replayed_epochs: coord.stats.replayed_epochs,
        epoch_stalls: coord.stats.epoch_stalls,
        transfer_retransmits: coord.stats.transfer_retransmits,
    })
}

/// One shard's barrier loop. Every worker passes the same barriers the
/// same number of times per epoch — including after an engine error,
/// when the worker keeps reporting itself idle until the coordinator
/// declares the run done — so the protocol can never wedge.
#[allow(clippy::too_many_arguments)]
fn run_worker<'rt>(
    shard: usize,
    runtime: &'rt ServeRuntime,
    members: &[usize],
    config: &ShardConfig,
    sink: &'rt dyn ObsSink,
    coord_sink: &dyn ObsSink,
    injector: &'rt dyn FaultInjector,
    shared: &Shared<'rt>,
    shard_labels: &[String],
) -> WorkerOut {
    let engine_config = EngineConfig {
        force: config.force,
        degrade: config.degrade.clone(),
        lean: config.lean,
        defer_escalations: true,
        one_ahead_arrivals: true,
    };
    let faults_on = injector.enabled();
    // Meta events (checkpoint/crash/recover/stall/retransmit) are
    // scoped to the shard, not to a stream, so `merged_trace` filters
    // them out by construction and merged byte-identity vs the
    // fault-free run holds.
    let scope = format!("shard{shard}");
    let label = [("shard", shard_labels[shard].as_str())];
    let mut engine: Option<ShardEngine<'rt>> =
        match runtime.engine(members, engine_config.clone(), sink, injector) {
            Ok(e) => Some(e),
            Err(e) => {
                let mut c = shared.coord.lock().expect("coordinator lock");
                c.error.get_or_insert(e);
                None
            }
        };

    // Crash-recovery artifacts. The journal is only maintained while
    // faults can fire (a crash cannot fire otherwise), so fault-free
    // runs pay nothing; checkpoints are taken whenever configured so
    // their overhead is measurable in isolation.
    let mut snapshot: Option<ShardSnapshot<'rt>> = None;
    let mut journal: BTreeMap<u64, JournalEntry<'rt>> = BTreeMap::new();

    let mut epoch: u64 = 0;
    loop {
        let t_end = (epoch + 1) as f64 * config.epoch_s;
        // One wall span per epoch, with one child per barrier phase (the
        // child includes the barrier wait: phase latency as other shards
        // observe it). Inert unless span profiling is on.
        let _epoch_span = predvfs_obs::span("shard.epoch");
        let phase_span = predvfs_obs::span("shard.epoch.report");

        // Phase 1: run to the boundary, then report.
        if let Some(eng) = engine.as_mut() {
            if let Err(e) = eng.run_until(t_end) {
                let mut c = shared.coord.lock().expect("coordinator lock");
                c.error.get_or_insert(e);
                engine = None;
            }
        }

        // Coordinator fault sites fire at the boundary, before the
        // report, so recovery completes entirely inside this worker —
        // the other shards just see a slow epoch at the barrier.
        if faults_on && engine.is_some() {
            if injector.epoch_stall(shard, epoch) {
                shared
                    .coord
                    .lock()
                    .expect("coordinator lock")
                    .stats
                    .epoch_stalls += 1;
                if coord_sink.enabled() {
                    coord_sink.counter_add_with("predvfs_shard_epoch_stalls_total", &label, 1);
                }
                if sink.enabled() {
                    sink.emit(
                        TraceEvent::new(t_end, &scope, kinds::EPOCH_STALL).with_u64("epoch", epoch),
                    );
                }
            }
            if injector.shard_crash(shard, epoch) {
                // The shard's in-memory state is gone: drop the engine
                // and rebuild it from the last snapshot plus a quiet
                // journal replay up to (and including) this epoch.
                drop(engine.take());
                match recover_engine(
                    runtime,
                    members,
                    &engine_config,
                    sink,
                    injector,
                    &snapshot,
                    &journal,
                    epoch,
                    config.epoch_s,
                ) {
                    Ok((eng, from_epoch, replayed)) => {
                        {
                            let mut c = shared.coord.lock().expect("coordinator lock");
                            c.stats.crashes += 1;
                            c.stats.recoveries += 1;
                            c.stats.replayed_epochs += replayed;
                        }
                        if coord_sink.enabled() {
                            coord_sink.counter_add_with("predvfs_shard_crashes_total", &label, 1);
                            coord_sink.counter_add_with(
                                "predvfs_shard_recoveries_total",
                                &label,
                                1,
                            );
                            coord_sink.counter_add_with(
                                "predvfs_shard_replayed_epochs_total",
                                &label,
                                replayed,
                            );
                        }
                        if sink.enabled() {
                            sink.emit(
                                TraceEvent::new(t_end, &scope, kinds::SHARD_CRASH)
                                    .with_u64("epoch", epoch),
                            );
                            sink.emit(
                                TraceEvent::new(t_end, &scope, kinds::RECOVER)
                                    .with_u64("epoch", epoch)
                                    .with_u64("from_epoch", from_epoch)
                                    .with_u64("replayed_epochs", replayed),
                            );
                        }
                        engine = Some(eng);
                    }
                    Err(e) => {
                        let mut c = shared.coord.lock().expect("coordinator lock");
                        c.stats.crashes += 1;
                        c.error.get_or_insert(e);
                    }
                }
            }
        }
        {
            let report = match engine.as_mut() {
                Some(eng) => {
                    let limit = if config.migration.enabled {
                        config.migration.max_moves_per_epoch
                    } else {
                        0
                    };
                    let (load, candidates) = eng.report(limit);
                    Report {
                        load,
                        candidates,
                        requests: eng.drain_boost_requests(),
                    }
                }
                None => Report {
                    load: ShardLoad::default(),
                    candidates: Vec::new(),
                    requests: Vec::new(),
                },
            };
            let mut c = shared.coord.lock().expect("coordinator lock");
            c.reports[shard] = Some(report);
        }
        shared.barrier.wait();
        drop(phase_span);
        let phase_span = predvfs_obs::span("shard.epoch.coordinate");

        // Phase 2: shard 0 coordinates — budget grants, migration,
        // termination — and publishes the plan.
        if shard == 0 {
            coordinate(shared, config, coord_sink, shard_labels);
        }
        shared.barrier.wait();

        let (done, grants, moves) = {
            let c = shared.coord.lock().expect("coordinator lock");
            (c.plan.done, c.plan.grants.clone(), c.plan.moves.clone())
        };
        if done {
            break;
        }
        drop(phase_span);
        let phase_span = predvfs_obs::span("shard.epoch.transfer");

        // Phase 3: extract outbound streams into the transfer map.
        let mut moves_out: Vec<usize> = Vec::new();
        if let Some(eng) = engine.as_mut() {
            for mv in moves.iter().filter(|mv| mv.from == shard) {
                if let Some(migrated) = eng.extract_stream(mv.gid) {
                    moves_out.push(mv.gid);
                    let mut c = shared.coord.lock().expect("coordinator lock");
                    c.transfer.insert(mv.gid, migrated);
                }
            }
        }
        shared.barrier.wait();
        drop(phase_span);
        let _phase_span = predvfs_obs::span("shard.epoch.admit_boost");

        // Phase 4: admit inbound streams, then apply granted boosts for
        // the streams this shard now owns — admission first, so every
        // grant lands on its post-migration owner and each stream's
        // boundary events come from exactly one shard.
        let mut inbound: Vec<MigratedStream<'rt>> = Vec::new();
        if let Some(eng) = engine.as_mut() {
            for mv in moves.iter().filter(|mv| mv.to == shard) {
                let migrated = {
                    let mut c = shared.coord.lock().expect("coordinator lock");
                    c.transfer.remove(&mv.gid)
                };
                if let Some(migrated) = migrated {
                    if faults_on && injector.transfer_drop(mv.gid, epoch) {
                        // The in-flight transfer was dropped; the
                        // coordinator retransmits from the retained
                        // copy, so the admission happens regardless —
                        // the fault is counted and traced, never
                        // behavioral.
                        shared
                            .coord
                            .lock()
                            .expect("coordinator lock")
                            .stats
                            .transfer_retransmits += 1;
                        if coord_sink.enabled() {
                            coord_sink.counter_add_with(
                                "predvfs_shard_transfer_retransmits_total",
                                &label,
                                1,
                            );
                        }
                        if sink.enabled() {
                            sink.emit(
                                TraceEvent::new(t_end, &scope, kinds::TRANSFER_RETRANSMIT)
                                    .with_u64("epoch", epoch)
                                    .with_u64("gid", mv.gid as u64),
                            );
                        }
                    }
                    if faults_on {
                        // Journal a clone: if this shard crashes later,
                        // the donor has moved on and cannot re-extract.
                        inbound.push(migrated.clone());
                    }
                    eng.admit_stream(migrated);
                }
            }
            let mut applied = 0usize;
            for grant in &grants {
                if eng.owns(grant.gid) && eng.apply_boost(*grant, t_end) {
                    applied += 1;
                }
            }
            if applied > 0 {
                let mut c = shared.coord.lock().expect("coordinator lock");
                c.stats.boosts_applied += applied;
            }
        }

        // Journal this boundary's decisions, then checkpoint on the
        // configured cadence (pruning journal entries the new snapshot
        // subsumes, which is what bounds replay cost and memory).
        if faults_on {
            let _journal_span = predvfs_obs::span("shard.journal");
            journal.insert(
                epoch,
                JournalEntry {
                    grants,
                    moves_out,
                    inbound,
                },
            );
        }
        if let Some(every) = config.checkpoint_every {
            if every > 0 && (epoch + 1).is_multiple_of(every) {
                if let Some(eng) = engine.as_ref() {
                    let _checkpoint_span = predvfs_obs::span("shard.checkpoint");
                    let snap = ShardSnapshot {
                        epoch,
                        checkpoint: eng.checkpoint(),
                    };
                    shared
                        .coord
                        .lock()
                        .expect("coordinator lock")
                        .stats
                        .checkpoints += 1;
                    if coord_sink.enabled() {
                        coord_sink.counter_add_with("predvfs_shard_checkpoints_total", &label, 1);
                    }
                    if sink.enabled() {
                        sink.emit(
                            TraceEvent::new(t_end, &scope, kinds::CHECKPOINT)
                                .with_u64("epoch", epoch)
                                .with_u64("streams", snap.checkpoint.streams.len() as u64)
                                .with_u64("jobs_done", snap.checkpoint.jobs_done),
                        );
                    }
                    journal = journal.split_off(&(epoch + 1));
                    snapshot = Some(snap);
                }
            }
        }

        epoch += 1;
    }

    match engine {
        Some(eng) => {
            let horizon_s = eng.horizon_s();
            let events = eng.events();
            let jobs_done = eng.jobs_done();
            WorkerOut {
                streams: eng.finish(),
                horizon_s,
                events,
                jobs_done,
            }
        }
        None => WorkerOut {
            streams: Vec::new(),
            horizon_s: 0.0,
            events: 0,
            jobs_done: 0,
        },
    }
}

/// Rebuild a crashed shard's engine deterministically: restore the last
/// [`ShardSnapshot`] (or re-prepare the shard's initial engine when none
/// was taken yet — checkpointing is purely an optimization that bounds
/// replay depth), then quietly replay the journal through the crash
/// epoch. Replay runs against a [`NullSink`] because the lost engine
/// already emitted every pre-crash trace event and metric; re-emitting
/// them would break merged-trace byte-identity with the fault-free run.
///
/// Each replayed boundary `b < crash_epoch` re-derives exactly what the
/// live loop did: run to the boundary, drain (and discard) boost
/// requests, extract the journaled outbound streams, admit the journaled
/// inbound clones, and apply the journaled global grant list filtered by
/// ownership. The crash epoch itself only replays the `run_until` — its
/// boundary processing happens live, right after recovery returns.
///
/// Returns `(engine, from_epoch, replayed_epochs)`.
#[allow(clippy::too_many_arguments)]
fn recover_engine<'rt>(
    runtime: &'rt ServeRuntime,
    members: &[usize],
    engine_config: &EngineConfig,
    sink: &'rt dyn ObsSink,
    injector: &'rt dyn FaultInjector,
    snapshot: &Option<ShardSnapshot<'rt>>,
    journal: &BTreeMap<u64, JournalEntry<'rt>>,
    crash_epoch: u64,
    epoch_s: f64,
) -> Result<(ShardEngine<'rt>, u64, u64), ServeError> {
    let _recover_span = predvfs_obs::span("shard.recover");
    let (mut eng, from_epoch) = match snapshot {
        Some(snap) => {
            // Empty shell, then re-admit every checkpointed stream
            // through the same path migration uses; the snapshot is the
            // state at the start of epoch `snap.epoch + 1`.
            let mut eng = runtime.engine(&[], engine_config.clone(), &NullSink, injector)?;
            for stream in &snap.checkpoint.streams {
                eng.admit_stream(stream.clone());
            }
            eng.restore_counters(
                snap.checkpoint.horizon_s,
                snap.checkpoint.events,
                snap.checkpoint.jobs_done,
            );
            (eng, snap.epoch + 1)
        }
        None => (
            runtime.engine(members, engine_config.clone(), &NullSink, injector)?,
            0,
        ),
    };
    for b in from_epoch..=crash_epoch {
        let t_b = (b + 1) as f64 * epoch_s;
        eng.run_until(t_b)?;
        if b == crash_epoch {
            // The live loop reports (and drains requests) next.
            break;
        }
        // Requests were consumed by the lost engine's epoch-b report;
        // the grant decisions they produced are in the journal.
        drop(eng.drain_boost_requests());
        if let Some(entry) = journal.get(&b) {
            for &gid in &entry.moves_out {
                drop(eng.extract_stream(gid));
            }
            for stream in &entry.inbound {
                eng.admit_stream(stream.clone());
            }
            for grant in &entry.grants {
                if eng.owns(grant.gid) {
                    eng.apply_boost(*grant, t_b);
                }
            }
        }
    }
    eng.set_sink(sink);
    Ok((eng, from_epoch, crash_epoch + 1 - from_epoch))
}

/// The per-epoch coordination step, run by shard 0 between barriers:
/// consumes every shard's report, grants the boost budget in global
/// `(t_s, gid)` order, schedules migrations off a sustained-overloaded
/// shard, decides termination, and emits shard-labeled metrics.
fn coordinate(
    shared: &Shared<'_>,
    config: &ShardConfig,
    coord_sink: &dyn ObsSink,
    shard_labels: &[String],
) {
    let mut c = shared.coord.lock().expect("coordinator lock");
    c.stats.epochs += 1;

    let reports: Vec<Report> = c
        .reports
        .iter_mut()
        .map(|r| r.take().expect("every shard reports before the barrier"))
        .collect();
    let all_idle = reports.iter().all(|r| r.load.pending_events == 0);

    // Budget: grant the earliest requests across all shards, ties by
    // global stream id — a total order independent of shard count.
    let mut grants: Vec<BoostRequest> = reports
        .iter()
        .flat_map(|r| r.requests.iter().copied())
        .collect();
    grants.sort_by(|a, b| a.t_s.total_cmp(&b.t_s).then_with(|| a.gid.cmp(&b.gid)));
    let budget = config.boost_tokens_per_epoch.unwrap_or(usize::MAX);
    let granted = grants.len().min(budget);
    let denied = grants.len() - granted;
    grants.truncate(granted);
    c.stats.boosts_granted += granted;
    c.stats.boosts_denied += denied;

    // Migration: move the busiest streams from the most to the least
    // loaded shard once the imbalance has persisted.
    let mut moves: Vec<Move> = Vec::new();
    if config.migration.enabled && reports.len() > 1 {
        let busy: Vec<usize> = reports
            .iter()
            .map(|r| r.load.queued * 2 + r.load.active)
            .collect();
        let mut max_i = 0;
        let mut min_i = 0;
        for (i, &b) in busy.iter().enumerate().skip(1) {
            if b > busy[max_i] {
                max_i = i;
            }
            if b < busy[min_i] {
                min_i = i;
            }
        }
        let imbalanced = max_i != min_i
            && busy[max_i] > 0
            && busy[max_i] as f64 >= config.migration.imbalance_ratio * busy[min_i].max(1) as f64;
        if imbalanced {
            c.streak += 1;
        } else {
            c.streak = 0;
        }
        if c.streak >= config.migration.sustain_epochs {
            c.streak = 0;
            moves.extend(
                reports[max_i]
                    .candidates
                    .iter()
                    .take(config.migration.max_moves_per_epoch)
                    .map(|&gid| Move {
                        gid,
                        from: max_i,
                        to: min_i,
                    }),
            );
            c.stats.migrations += moves.len();
        }
    }

    let done = c.error.is_some() || (all_idle && grants.is_empty() && moves.is_empty());

    // Shard-labeled metrics only — the coordinator never emits trace
    // events, so merged traces stay shard-count invariant.
    if coord_sink.enabled() {
        for (i, r) in reports.iter().enumerate() {
            let labels = [("shard", shard_labels[i].as_str())];
            coord_sink.gauge_set_with("predvfs_shard_streams", &labels, r.load.streams as f64);
            coord_sink.gauge_set_with("predvfs_shard_active", &labels, r.load.active as f64);
            coord_sink.gauge_set_with("predvfs_shard_queued", &labels, r.load.queued as f64);
            coord_sink.gauge_set_with(
                "predvfs_shard_pending_events",
                &labels,
                r.load.pending_events as f64,
            );
            coord_sink.gauge_set_with("predvfs_shard_jobs_done", &labels, r.load.jobs_done as f64);
        }
        coord_sink.counter_add("predvfs_shard_epochs_total", 1);
        if !moves.is_empty() {
            coord_sink.counter_add("predvfs_shard_migrations_total", moves.len() as u64);
        }
        if granted > 0 {
            coord_sink.counter_add("predvfs_shard_boosts_granted_total", granted as u64);
        }
        if denied > 0 {
            coord_sink.counter_add("predvfs_shard_boosts_denied_total", denied as u64);
        }
    }

    c.plan = Plan {
        grants,
        moves,
        done,
    };
}

/// Merges per-shard trace streams into the canonical global order:
/// ascending timestamp, ties broken by global stream id (the event's
/// scope is the stream name, mapped through the runtime's spec order).
/// Events whose scope is not a stream name are dropped — per-shard
/// traces must only carry stream-scoped service events, which is what
/// the shard engines emit.
///
/// Within one `(t_s, gid)` cell the per-shard order is preserved, and
/// because a stream lives on exactly one shard at any instant that
/// order is the stream's own causal order — so the merged stream is
/// byte-identical across shard counts (pinned by `shard_determinism`).
/// [`ServeRuntime::prepare`] rejects a scenario that names two streams
/// alike, so the mapping from name to stream id is faithful.
pub fn merged_trace(runtime: &ServeRuntime, sources: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let rank: HashMap<&str, u64> = runtime
        .specs()
        .enumerate()
        .map(|(gid, s)| (s.name.as_str(), gid as u64))
        .collect();
    predvfs_obs::merge_events(sources, |e| rank.get(e.scope.as_str()).copied())
}

/// [`merged_trace`] rendered as one JSONL document (one event per
/// line), the byte-identity artifact the determinism suite and the CI
/// scale smoke compare.
pub fn merged_trace_jsonl(runtime: &ServeRuntime, sources: Vec<Vec<TraceEvent>>) -> String {
    let events = merged_trace(runtime, sources);
    let mut out = String::new();
    for e in &events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}
