//! # predvfs-shard
//!
//! The sharded serve tier: N [`ShardEngine`]s — each owning a partition
//! of the scenario's streams, its own virtual clock, per-stream pending
//! events, admission queues, and trace stream — run under a
//! budget-owning coordinator, an epoch loop on the calling thread.
//! Streams never interact inside an epoch, so one shard's epoch needs
//! nothing from another's until the boundary: each epoch is a fork-join.
//!
//! Each epoch the coordinator:
//!
//! 1. fans the shards out to the epoch boundary, where each runs its
//!    event loop stream-major (one stream's events to the boundary, then
//!    the next stream's), fires its fault sites and reports,
//! 2. grants the first `boost_tokens_per_epoch` of the shards' deferred
//!    escalation requests in global `(t_s, gid)` order (the power/level
//!    budget),
//! 3. migrates the busiest streams off a sustained-overloaded shard
//!    onto the least loaded one, and
//! 4. stops once every shard is idle with nothing left to grant or move.
//!
//! A shard with an event due before the boundary runs its epoch on a
//! scoped thread of its own, except the first such shard, which runs on
//! the calling thread, as every idle shard does; a 1-shard run spawns no
//! thread at all.
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
//! deterministic* failover. Each shard keeps two recovery artifacts:
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
//! When a crash fires at a shard's epoch boundary, the shard rebuilds
//! its engine from the last snapshot (or from scratch when none exists —
//! checkpointing is an optimization, not a correctness requirement),
//! replays the journal quietly up to the crash epoch against a
//! [`NullSink`] (the lost engine already emitted those trace events),
//! swaps the real sink back, and reports like any other shard — to the
//! rest of the run the crash is a slow epoch. Because streams never
//! interact inside the loop and every boundary decision is re-applied
//! in its original order, the recovered run's merged trace is
//! **byte-identical** to the fault-free run's once the shard-scoped
//! checkpoint/crash/recover meta-events are filtered out (which
//! [`merged_trace`] does by construction) — the `crash_recovery` suite
//! pins this over proptest-chosen (crash epoch, shard, shard count)
//! triples.
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
use std::thread::ScopedJoinHandle;

use predvfs_faults::FaultInjector;
use predvfs_obs::{kinds, NullSink, ObsSink, TraceEvent};
use predvfs_serve::{
    BoostRequest, ControllerKind, EngineCheckpoint, EngineConfig, MigratedStream, ServeError,
    ServeRuntime, ShardEngine, ShardLoad, StreamResult,
};

mod synth;

pub use synth::{synth_scenario, SynthSpec};

/// When and how the coordinator moves streams between shards.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
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
    /// Epoch length in virtual seconds: the boundary cadence at which
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
    /// Turns every shard's degradation machinery on
    /// ([`EngineConfig::degrade`]).
    pub degrade: bool,
    /// Lean mode: skip per-job records and calibration/SLO tracking to
    /// hold memory flat at millions of streams. Aggregate counters
    /// (done, missed, shed, energy) stay exact.
    pub lean: bool,
    /// Capture a [`ShardSnapshot`] every this-many epochs (`None`
    /// disables checkpointing). Crash recovery works either way — with
    /// no snapshot the shard rebuilds from scratch and replays the
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
            degrade: false,
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
    /// Injected epoch stalls observed (no behavioral effect).
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

/// One shard's report at an epoch boundary. The shard is idle when no
/// event is pending in it.
struct Report {
    load: ShardLoad,
    candidates: Vec<usize>,
    requests: Vec<BoostRequest>,
    /// Whether the shard's `epoch_stall` site fired.
    stalled: bool,
    /// The epochs replayed to recover from a crash at this boundary.
    replayed: Option<u64>,
}

/// One coordinator-decided stream move.
#[derive(Debug, Clone, Copy)]
struct Move {
    gid: usize,
    from: usize,
    to: usize,
}

/// The coordinator's decisions for one epoch boundary.
struct Plan {
    grants: Vec<BoostRequest>,
    moves: Vec<Move>,
    done: bool,
}

/// What every shard reads during a run and none of them changes.
struct Tier<'a, 'rt> {
    runtime: &'rt ServeRuntime<'rt>,
    config: &'a ShardConfig,
    engine_config: EngineConfig,
    injector: &'rt dyn FaultInjector,
    /// Whether faults can fire. The journal is kept only then, since a
    /// crash cannot fire otherwise, so fault-free runs pay nothing for
    /// it; checkpoints are taken whenever configured so their overhead
    /// is measurable in isolation.
    faults_on: bool,
}

impl Tier<'_, '_> {
    /// Virtual time of epoch `epoch`'s boundary.
    fn boundary(&self, epoch: u64) -> f64 {
        (epoch + 1) as f64 * self.config.epoch_s
    }
}

/// One shard as the epoch loop owns it: its engine, its sink and its
/// crash-recovery artifacts.
struct Shard<'rt> {
    index: usize,
    /// The streams the shard starts with; a recovery with no snapshot
    /// rebuilds the engine from them.
    members: Vec<usize>,
    sink: &'rt dyn ObsSink,
    /// The scope of the shard's meta events (checkpoint, crash, recover,
    /// stall, retransmit). It names no stream, so [`merged_trace`] drops
    /// them by construction and the merged trace matches the fault-free
    /// run's.
    scope: String,
    engine: ShardEngine<'rt>,
    /// The engine's earliest pending event time. The shard takes it from
    /// its report at the end of each epoch, and recomputes it after a
    /// boundary that moved its streams or boosted one; the epoch loop
    /// gives the shard a thread only when it falls before the next
    /// boundary.
    next_event_s: Option<f64>,
    snapshot: Option<ShardSnapshot<'rt>>,
    /// The boundary decisions applied since the snapshot, by epoch.
    journal: BTreeMap<u64, JournalEntry<'rt>>,
}

impl<'rt> Shard<'rt> {
    /// Runs the shard to the boundary of `epoch`, fires its fault sites
    /// there (recovering in place from a crash), and reports.
    fn run_epoch(&mut self, tier: &Tier<'_, 'rt>, epoch: u64) -> Result<Report, ServeError> {
        let t_end = tier.boundary(epoch);
        self.engine.run_until(t_end)?;
        let mut stalled = false;
        let mut replayed = None;
        if tier.faults_on {
            if tier.injector.epoch_stall(self.index, epoch) {
                stalled = true;
                if self.sink.enabled() {
                    self.sink.emit(
                        TraceEvent::new(t_end, &self.scope, kinds::EPOCH_STALL)
                            .with_u64("epoch", epoch),
                    );
                }
            }
            if tier.injector.shard_crash(self.index, epoch) {
                // The shard's in-memory state is gone: rebuild the engine
                // from the last snapshot plus a quiet journal replay up to
                // (and including) this epoch, never reading the lost one.
                let (engine, from_epoch, n) = self.recover(tier, epoch)?;
                self.engine = engine;
                replayed = Some(n);
                if self.sink.enabled() {
                    self.sink.emit(
                        TraceEvent::new(t_end, &self.scope, kinds::SHARD_CRASH)
                            .with_u64("epoch", epoch),
                    );
                    self.sink.emit(
                        TraceEvent::new(t_end, &self.scope, kinds::RECOVER)
                            .with_u64("epoch", epoch)
                            .with_u64("from_epoch", from_epoch)
                            .with_u64("replayed_epochs", n),
                    );
                }
            }
        }
        let (load, candidates) = self
            .engine
            .report(tier.config.migration.max_moves_per_epoch);
        self.next_event_s = load.next_event_s;
        Ok(Report {
            load,
            candidates,
            requests: self.engine.drain_boost_requests(),
            stalled,
            replayed,
        })
    }

    /// Applies the decisions of `epoch`'s boundary once the `moves_out`
    /// streams have left: admits `inbound` in move order, then applies
    /// the grants for streams the shard now owns, and journals all three
    /// while faults can fire. Returns the grants applied and the
    /// transfers retransmitted.
    fn cross_boundary(
        &mut self,
        tier: &Tier<'_, 'rt>,
        epoch: u64,
        moves_out: Vec<usize>,
        inbound: Vec<MigratedStream<'rt>>,
        grants: &[BoostRequest],
    ) -> (usize, usize) {
        let t_end = tier.boundary(epoch);
        let mut retransmits = 0;
        if tier.faults_on {
            for stream in &inbound {
                if tier.injector.transfer_drop(stream.gid(), epoch) {
                    // The in-flight transfer was dropped; the coordinator
                    // retransmits from the retained copy, so the admission
                    // happens regardless — the fault is counted and traced,
                    // never behavioral.
                    retransmits += 1;
                    if self.sink.enabled() {
                        self.sink.emit(
                            TraceEvent::new(t_end, &self.scope, kinds::TRANSFER_RETRANSMIT)
                                .with_u64("epoch", epoch)
                                .with_u64("gid", stream.gid() as u64),
                        );
                    }
                }
            }
        }
        // Journal clones: if this shard crashes later, the donor has
        // moved on and cannot re-extract them.
        let journaled = tier.faults_on.then(|| inbound.clone());
        let moved = !moves_out.is_empty() || !inbound.is_empty();
        let applied = admit_and_grant(&mut self.engine, inbound, grants, t_end);
        if moved || applied > 0 {
            self.next_event_s = self.engine.report(0).0.next_event_s;
        }
        if let Some(inbound) = journaled {
            let _journal_span = predvfs_obs::span("shard.journal");
            self.journal.insert(
                epoch,
                JournalEntry {
                    grants: grants.to_vec(),
                    moves_out,
                    inbound,
                },
            );
        }
        (applied, retransmits)
    }

    /// Snapshots the shard at `epoch`'s boundary and prunes the journal
    /// entries the snapshot subsumes, which is what bounds replay cost
    /// and memory.
    fn checkpoint(&mut self, tier: &Tier<'_, 'rt>, epoch: u64) {
        let _checkpoint_span = predvfs_obs::span("shard.checkpoint");
        let snap = ShardSnapshot {
            epoch,
            checkpoint: self.engine.checkpoint(),
        };
        if self.sink.enabled() {
            self.sink.emit(
                TraceEvent::new(tier.boundary(epoch), &self.scope, kinds::CHECKPOINT)
                    .with_u64("epoch", epoch)
                    .with_u64("streams", snap.checkpoint.streams.len() as u64)
                    .with_u64("jobs_done", snap.checkpoint.jobs_done),
            );
        }
        self.journal = self.journal.split_off(&(epoch + 1));
        self.snapshot = Some(snap);
    }

    /// Rebuilds the shard's engine deterministically: restores the last
    /// [`ShardSnapshot`] (or re-prepares the shard's initial engine when
    /// none was taken yet — checkpointing is purely an optimization that
    /// bounds replay depth), then quietly replays the journal through the
    /// crash epoch. Replay runs against a [`NullSink`] because the lost
    /// engine already emitted every pre-crash trace event and metric;
    /// re-emitting them would break merged-trace byte-identity with the
    /// fault-free run.
    ///
    /// Each replayed boundary `b < crash_epoch` re-derives exactly what
    /// the live loop did: run to the boundary, drain (and discard) boost
    /// requests, extract the journaled outbound streams, then admit the
    /// journaled inbound clones and apply the journaled global grant list
    /// filtered by ownership. The crash epoch itself only replays the
    /// `run_until` — its boundary processing happens live, right after
    /// recovery returns.
    ///
    /// Returns `(engine, from_epoch, replayed_epochs)`.
    fn recover(
        &self,
        tier: &Tier<'_, 'rt>,
        crash_epoch: u64,
    ) -> Result<(ShardEngine<'rt>, u64, u64), ServeError> {
        let _recover_span = predvfs_obs::span("shard.recover");
        let quiet_engine = |members: &[usize]| {
            tier.runtime.engine(
                members,
                tier.engine_config.clone(),
                &NullSink,
                tier.injector,
            )
        };
        let (mut eng, from_epoch) = match &self.snapshot {
            Some(snap) => {
                // Empty shell, then re-admit every checkpointed stream
                // through the same path migration uses; the snapshot is
                // the state at the start of epoch `snap.epoch + 1`.
                let mut eng = quiet_engine(&[])?;
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
            None => (quiet_engine(&self.members)?, 0),
        };
        for b in from_epoch..=crash_epoch {
            let t_b = tier.boundary(b);
            eng.run_until(t_b)?;
            if b == crash_epoch {
                // The live loop reports (and drains requests) next.
                break;
            }
            // Requests were consumed by the lost engine's epoch-b report;
            // the grant decisions they produced are in the journal.
            drop(eng.drain_boost_requests());
            if let Some(entry) = self.journal.get(&b) {
                for &gid in &entry.moves_out {
                    drop(eng.extract_stream(gid));
                }
                admit_and_grant(&mut eng, entry.inbound.iter().cloned(), &entry.grants, t_b);
            }
        }
        eng.set_sink(self.sink);
        Ok((eng, from_epoch, crash_epoch + 1 - from_epoch))
    }
}

/// Admits `inbound` into `eng` in order, then applies each grant for a
/// stream `eng` owns at the boundary time `t_b`, and returns how many
/// applied. Admission comes first, so every grant lands on its
/// post-migration owner and each stream's boundary events come from
/// exactly one shard. The live boundary and crash replay both apply
/// their decisions through here.
fn admit_and_grant<'rt>(
    eng: &mut ShardEngine<'rt>,
    inbound: impl IntoIterator<Item = MigratedStream<'rt>>,
    grants: &[BoostRequest],
    t_b: f64,
) -> usize {
    for stream in inbound {
        eng.admit_stream(stream);
    }
    grants
        .iter()
        .filter(|grant| eng.owns(grant.gid) && eng.apply_boost(**grant, t_b))
        .count()
}

/// Runs `step` on every item and returns the results in item order.
/// Each item comes flagged with whether it has enough work for a thread
/// of its own: every flagged item but the first runs on a scoped thread,
/// and the first flagged item and every unflagged one run on the calling
/// thread, while the scoped threads run theirs. A scoped spawn costs tens
/// of microseconds, more than an idle shard's epoch.
fn fan_out<I: Send, T: Send>(
    items: impl IntoIterator<Item = (bool, I)>,
    step: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let step = &step;
    std::thread::scope(|scope| {
        let mut caller_has_one = false;
        let started: Vec<Result<I, ScopedJoinHandle<'_, T>>> = items
            .into_iter()
            .map(|(threaded, item)| {
                if threaded && std::mem::replace(&mut caller_has_one, true) {
                    Err(scope.spawn(move || step(item)))
                } else {
                    Ok(item)
                }
            })
            .collect();
        // Run the calling thread's items before joining any thread.
        let ran: Vec<Result<T, ScopedJoinHandle<'_, T>>> =
            started.into_iter().map(|item| item.map(step)).collect();
        ran.into_iter()
            .map(|out| out.unwrap_or_else(|h| h.join().expect("shard thread panicked")))
            .collect()
    })
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
/// (`shards == 0`, a non-positive epoch, or a sink-count mismatch). An
/// engine or recovery failure ends the run after the epoch in which it
/// happened, and the lowest-numbered failing shard's error is returned.
pub fn run_sharded<'rt>(
    runtime: &'rt ServeRuntime<'rt>,
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
    // per class) so the shards never race on first-use construction cost.
    runtime.warm_cached_tables(config.force)?;

    let tier = Tier {
        runtime,
        config,
        engine_config: EngineConfig {
            force: config.force,
            degrade: config.degrade,
            lean: config.lean,
            defer_escalations: true,
            one_ahead_arrivals: true,
        },
        injector,
        faults_on: injector.enabled(),
    };
    let n_streams = runtime.specs().len();
    let mut shards = fan_out((0..config.shards).map(|index| (true, index)), |index| {
        let members: Vec<usize> = (index..n_streams).step_by(config.shards).collect();
        let sink = shard_sinks.get(index).copied().unwrap_or(&NullSink);
        let engine = runtime.engine(&members, tier.engine_config.clone(), sink, injector)?;
        Ok(Shard {
            index,
            members,
            sink,
            scope: format!("shard{index}"),
            next_event_s: engine.report(0).0.next_event_s,
            engine,
            snapshot: None,
            journal: BTreeMap::new(),
        })
    })
    .into_iter()
    .collect::<Result<Vec<Shard<'rt>>, ServeError>>()?;
    let labels: Vec<String> = (0..config.shards).map(|i| i.to_string()).collect();

    let mut result = ShardedResult {
        streams: Vec::new(),
        horizon_s: 0.0,
        events: 0,
        jobs_done: 0,
        shard_jobs_done: Vec::with_capacity(config.shards),
        epochs: 0,
        migrations: 0,
        boosts_granted: 0,
        boosts_denied: 0,
        boosts_applied: 0,
        checkpoints: 0,
        crashes: 0,
        recoveries: 0,
        replayed_epochs: 0,
        epoch_stalls: 0,
        transfer_retransmits: 0,
    };
    let mut streak = 0;
    for epoch in 0u64.. {
        let t_end = tier.boundary(epoch);
        // One wall span per epoch; inert unless span profiling is on.
        let _epoch_span = predvfs_obs::span("shard.epoch");
        let due = |shard: &Shard<'_>| shard.next_event_s.is_some_and(|t| t < t_end);
        let reports = fan_out(
            shards.iter_mut().map(|shard| (due(shard), shard)),
            |shard| shard.run_epoch(&tier, epoch),
        )
        .into_iter()
        .collect::<Result<Vec<Report>, ServeError>>()?;

        let plan = coordinate(
            &reports,
            config,
            &mut streak,
            &mut result,
            coord_sink,
            &labels,
        );
        if plan.done {
            break;
        }

        // Hand each moving stream from its donor to its recipient, then
        // let every shard cross the boundary.
        let mut moves_out = vec![Vec::new(); config.shards];
        let mut inbound = vec![Vec::new(); config.shards];
        for mv in &plan.moves {
            if let Some(stream) = shards[mv.from].engine.extract_stream(mv.gid) {
                moves_out[mv.from].push(mv.gid);
                inbound[mv.to].push(stream);
            }
        }
        for ((shard, moves_out), inbound) in shards.iter_mut().zip(moves_out).zip(inbound) {
            let (applied, retransmits) =
                shard.cross_boundary(&tier, epoch, moves_out, inbound, &plan.grants);
            result.boosts_applied += applied;
            result.transfer_retransmits += retransmits;
            if retransmits > 0 && coord_sink.enabled() {
                coord_sink.counter_add_with(
                    "predvfs_shard_transfer_retransmits_total",
                    &[("shard", labels[shard.index].as_str())],
                    retransmits as u64,
                );
            }
        }

        if config
            .checkpoint_every
            .is_some_and(|every| every > 0 && (epoch + 1).is_multiple_of(every))
        {
            fan_out(shards.iter_mut().map(|shard| (true, shard)), |shard| {
                shard.checkpoint(&tier, epoch)
            });
            result.checkpoints += config.shards;
            if coord_sink.enabled() {
                for label in &labels {
                    coord_sink.counter_add_with(
                        "predvfs_shard_checkpoints_total",
                        &[("shard", label.as_str())],
                        1,
                    );
                }
            }
        }
    }

    for shard in &shards {
        result.shard_jobs_done.push(shard.engine.jobs_done());
        result.horizon_s = result.horizon_s.max(shard.engine.horizon_s());
        result.events += shard.engine.events();
    }
    result.jobs_done = result.shard_jobs_done.iter().sum();
    // Each shard finishes its engine and drops its snapshot on its own
    // thread.
    let mut keyed: Vec<(usize, StreamResult)> = Vec::with_capacity(n_streams);
    for streams in fan_out(shards.into_iter().map(|shard| (true, shard)), |shard| {
        shard.engine.finish()
    }) {
        keyed.extend(streams);
    }
    keyed.sort_by_key(|&(gid, _)| gid);
    debug_assert!(keyed.iter().enumerate().all(|(i, &(gid, _))| i == gid));
    result.streams = keyed.into_iter().map(|(_, r)| r).collect();
    Ok(result)
}

/// The coordination step at an epoch boundary: counts the shards' stalls
/// and recoveries, grants the boost budget in global `(t_s, gid)` order,
/// schedules migrations off a sustained-overloaded shard, decides
/// termination, and emits shard-labeled metrics.
fn coordinate(
    reports: &[Report],
    config: &ShardConfig,
    streak: &mut usize,
    result: &mut ShardedResult,
    coord_sink: &dyn ObsSink,
    labels: &[String],
) -> Plan {
    result.epochs += 1;
    for (r, label) in reports.iter().zip(labels) {
        let label = [("shard", label.as_str())];
        if r.stalled {
            result.epoch_stalls += 1;
            if coord_sink.enabled() {
                coord_sink.counter_add_with("predvfs_shard_epoch_stalls_total", &label, 1);
            }
        }
        if let Some(replayed) = r.replayed {
            result.crashes += 1;
            result.recoveries += 1;
            result.replayed_epochs += replayed;
            if coord_sink.enabled() {
                coord_sink.counter_add_with("predvfs_shard_crashes_total", &label, 1);
                coord_sink.counter_add_with("predvfs_shard_recoveries_total", &label, 1);
                coord_sink.counter_add_with(
                    "predvfs_shard_replayed_epochs_total",
                    &label,
                    replayed,
                );
            }
        }
    }
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
    result.boosts_granted += granted;
    result.boosts_denied += denied;

    // Migration: move the busiest streams from the most to the least
    // loaded shard once the imbalance has persisted.
    let mut moves: Vec<Move> = Vec::new();
    if reports.len() > 1 {
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
            *streak += 1;
        } else {
            *streak = 0;
        }
        if *streak >= config.migration.sustain_epochs {
            *streak = 0;
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
            result.migrations += moves.len();
        }
    }

    let done = all_idle && grants.is_empty() && moves.is_empty();

    // Shard-labeled metrics only — the coordinator never emits trace
    // events, so merged traces stay shard-count invariant.
    if coord_sink.enabled() {
        for (r, label) in reports.iter().zip(labels) {
            let labels = [("shard", label.as_str())];
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

    Plan {
        grants,
        moves,
        done,
    }
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
        .iter()
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
