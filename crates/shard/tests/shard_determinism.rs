//! The sharded tier's determinism contract, pinned:
//!
//! 1. the merged trace is byte-identical across 1 / 4 / 16 shards,
//!    chaos off and chaos on;
//! 2. each shard's own trace is byte-identical run to run;
//! 3. rebalancing conserves work — every migrated stream's jobs appear
//!    exactly once, and per-stream results match an unsharded run;
//! 4. the boost budget is shard-count invariant, and a sharded run with
//!    no boost activity reproduces the legacy serial engine's per-stream
//!    counters, event count and merged trace, with and without faults;
//! 5. a fault configuration built in code that schedules events before
//!    the one being handled still finishes, on any shard count;
//! 6. a long-gap schedule, with events in a few of its thousands of
//!    epochs, serves alike on every shard count, with and without shard
//!    crashes.

use std::collections::HashMap;

use predvfs_accel::{by_name, WorkloadSize};
use predvfs_faults::{FaultConfig, FaultInjector, FaultPlan, NullInjector};
use predvfs_obs::{kinds, FieldValue, NullSink, ObsSink, Recorder};
use predvfs_serve::{EngineConfig, Scenario, ServeRuntime, StreamResult, StreamSpec};
use predvfs_shard::{
    merged_trace, merged_trace_jsonl, run_sharded, synth_scenario, MigrationConfig, ShardConfig,
    ShardedResult, SynthSpec,
};
use predvfs_sim::{Experiment, ExperimentConfig, Platform, TraceCache};

const RING: usize = 1 << 20;

fn run_at(
    rt: &ServeRuntime,
    base: &ShardConfig,
    shards: usize,
    injector: &dyn FaultInjector,
) -> (ShardedResult, String, Vec<String>) {
    let recorders: Vec<Recorder> = (0..shards).map(|_| Recorder::new(RING)).collect();
    let sinks: Vec<&dyn ObsSink> = recorders.iter().map(|r| r as &dyn ObsSink).collect();
    let config = ShardConfig {
        shards,
        ..base.clone()
    };
    let result = run_sharded(rt, &config, &sinks, &NullSink, injector).expect("sharded run");
    let per_shard: Vec<String> = recorders.iter().map(|r| r.ring().to_jsonl()).collect();
    let merged = merged_trace_jsonl(rt, recorders.iter().map(|r| r.ring().snapshot()).collect());
    for r in &recorders {
        assert_eq!(r.ring().dropped(), 0, "ring too small for the test");
    }
    (result, merged, per_shard)
}

fn assert_same_streams(a: &[StreamResult], b: &[StreamResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.submitted, y.submitted, "{}", x.name);
        assert_eq!(x.completed(), y.completed(), "{}", x.name);
        assert_eq!(x.misses(), y.misses(), "{}", x.name);
        assert_eq!(x.shed, y.shed, "{}", x.name);
        // The degradation-machinery counters travel with the stream, so
        // migration (and crash recovery) must conserve every one of
        // them, not just the job accounting.
        assert_eq!(x.relaxed, y.relaxed, "{}: relaxed", x.name);
        assert_eq!(x.refits, y.refits, "{}: refits", x.name);
        assert_eq!(x.faults, y.faults, "{}: faults", x.name);
        assert_eq!(x.escalations, y.escalations, "{}: escalations", x.name);
        assert_eq!(x.quarantines, y.quarantines, "{}: quarantines", x.name);
        assert_eq!(
            x.internal_errors, y.internal_errors,
            "{}: internal_errors",
            x.name
        );
        assert_eq!(
            x.total_energy_pj().to_bits(),
            y.total_energy_pj().to_bits(),
            "{}",
            x.name
        );
    }
}

fn prepare(scenario: &Scenario) -> ServeRuntime<'_> {
    ServeRuntime::prepare(scenario, &TraceCache::new()).expect("prepare")
}

fn small_scenario() -> Scenario {
    synth_scenario(&SynthSpec {
        streams: 24,
        classes: 3,
        jobs_per_stream: 6,
        ..SynthSpec::new(24)
    })
}

fn base_config() -> ShardConfig {
    ShardConfig {
        epoch_s: 2e-3,
        degrade: true,
        ..ShardConfig::default()
    }
}

#[test]
fn merged_trace_identical_across_shard_counts() {
    let scenario = small_scenario();
    let rt = prepare(&scenario);
    let base = base_config();
    let (r1, m1, _) = run_at(&rt, &base, 1, &NullInjector);
    let (r4, m4, _) = run_at(&rt, &base, 4, &NullInjector);
    let (r16, m16, _) = run_at(&rt, &base, 16, &NullInjector);
    assert!(!m1.is_empty());
    assert_eq!(m1, m4, "merged trace differs between 1 and 4 shards");
    assert_eq!(m1, m16, "merged trace differs between 1 and 16 shards");
    assert_same_streams(&r1.streams, &r4.streams);
    assert_same_streams(&r1.streams, &r16.streams);
    assert_eq!(r1.jobs_done, r4.jobs_done);
    assert_eq!(r1.jobs_done, r16.jobs_done);
}

#[test]
fn merged_trace_identical_across_shard_counts_under_chaos() {
    let scenario = small_scenario();
    let rt = prepare(&scenario);
    let base = base_config();
    let plan = FaultPlan::new(7, FaultConfig::standard());
    let (r1, m1, _) = run_at(&rt, &base, 1, &plan);
    let (r4, m4, _) = run_at(&rt, &base, 4, &plan);
    let (r16, m16, _) = run_at(&rt, &base, 16, &plan);
    assert!(!m1.is_empty());
    assert_eq!(m1, m4, "chaos merged trace differs between 1 and 4 shards");
    assert_eq!(
        m1, m16,
        "chaos merged trace differs between 1 and 16 shards"
    );
    assert_same_streams(&r1.streams, &r4.streams);
    assert_same_streams(&r1.streams, &r16.streams);
}

#[test]
fn per_shard_traces_identical_run_to_run() {
    let scenario = small_scenario();
    let rt = prepare(&scenario);
    let base = base_config();
    let plan = FaultPlan::new(7, FaultConfig::standard());
    let (_, m_a, per_a) = run_at(&rt, &base, 4, &plan);
    let (_, m_b, per_b) = run_at(&rt, &base, 4, &plan);
    assert_eq!(m_a, m_b);
    assert_eq!(per_a.len(), per_b.len());
    for (i, (a, b)) in per_a.iter().zip(&per_b).enumerate() {
        assert!(!a.is_empty(), "shard {i} emitted nothing");
        assert_eq!(a, b, "shard {i} trace differs run to run");
    }
}

/// A two-class scenario engineered so that `gid % 2` puts every
/// overloaded stream on shard 0: class 0 (even gids) floods its queue,
/// class 1 (odd gids) is nearly idle. Under two shards the imbalance is
/// structural and sustained, so the coordinator must migrate.
fn imbalanced_scenario() -> Scenario {
    let spec = SynthSpec {
        streams: 12,
        classes: 2,
        jobs_per_stream: 8,
        ..SynthSpec::new(12)
    };
    let mut scenario = synth_scenario(&spec);
    for (gid, s) in scenario.streams.iter_mut().enumerate() {
        if gid % 2 == 0 {
            s.period_s = 0.05e-3; // far faster than service
            s.queue_bound = 8;
            s.jobs = 40;
        }
    }
    scenario
}

#[test]
fn rebalance_conserves_every_stream_and_job() {
    let scenario = imbalanced_scenario();
    let rt = prepare(&scenario);
    let base = ShardConfig {
        epoch_s: 0.5e-3,
        migration: MigrationConfig {
            imbalance_ratio: 2.0,
            sustain_epochs: 2,
            max_moves_per_epoch: 2,
        },
        ..ShardConfig::default()
    };

    let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::new(RING)).collect();
    let sinks: Vec<&dyn ObsSink> = recorders.iter().map(|r| r as &dyn ObsSink).collect();
    let config = ShardConfig {
        shards: 2,
        ..base.clone()
    };
    let sharded = run_sharded(&rt, &config, &sinks, &NullSink, &NullInjector).expect("sharded");
    assert!(
        sharded.migrations > 0,
        "structural imbalance must trigger migration"
    );

    // Every stream is accounted for exactly once, with its full job set.
    assert_eq!(sharded.streams.len(), 12);
    for s in &sharded.streams {
        assert_eq!(
            s.completed() + s.shed,
            s.submitted,
            "{}: done + shed != submitted",
            s.name
        );
    }

    // Migration must not change any stream's outcome: an unsharded run
    // is the reference.
    let (reference, _, _) = run_at(&rt, &base, 1, &NullInjector);
    assert_same_streams(&reference.streams, &sharded.streams);

    // In the merged trace, each stream's arrivals match its submissions
    // and each completed job appears exactly once — nothing is lost or
    // duplicated by the extract/admit handoff.
    let merged = merged_trace(&rt, recorders.iter().map(|r| r.ring().snapshot()).collect());
    let mut arrivals: HashMap<String, usize> = HashMap::new();
    let mut done_jobs: HashMap<(String, u64), usize> = HashMap::new();
    for e in &merged {
        if e.kind == kinds::ARRIVAL {
            *arrivals.entry(e.scope.clone()).or_default() += 1;
        } else if e.kind == kinds::JOB_DONE {
            let job = e
                .fields
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (&"job", &FieldValue::U64(j)) => Some(j),
                    _ => None,
                })
                .expect("job_done carries a job id");
            *done_jobs.entry((e.scope.clone(), job)).or_default() += 1;
        }
    }
    for s in &sharded.streams {
        assert_eq!(
            arrivals.get(&s.name).copied().unwrap_or(0),
            s.submitted,
            "{}: merged arrivals",
            s.name
        );
        let done = done_jobs.keys().filter(|(name, _)| name == &s.name).count();
        assert_eq!(done, s.completed(), "{}: merged job_done count", s.name);
    }
    for ((name, job), count) in &done_jobs {
        assert_eq!(*count, 1, "{name} job {job} completed {count} times");
    }
}

/// Streams with deadlines sized to `headroom ×` their benchmark's
/// largest nominal job (names kept unique for the merged-trace rank
/// map) — tight enough that transient spikes project misses and the
/// watchdog raises escalation requests.
fn tight_scenario() -> Scenario {
    let cache = TraceCache::new();
    let mut streams = Vec::new();
    for (i, bench_name) in ["sha", "md", "sha", "md", "sha", "md"].iter().enumerate() {
        let bench = by_name(bench_name).expect("benchmark registered");
        let mut probe_cfg = ExperimentConfig::paper_default(Platform::Asic);
        probe_cfg.size = WorkloadSize::Quick;
        let probe = Experiment::prepare_cached(bench, probe_cfg, &cache).expect("probe prepares");
        let (max_ms, _, _) = probe.exec_time_stats_ms();
        let mut spec = StreamSpec::new(bench);
        spec.name = format!("t{i}_{bench_name}");
        spec.deadline_s = 2.5 * max_ms * 1e-3;
        spec.period_s = 2.0 * spec.deadline_s;
        spec.jobs = 40;
        streams.push(spec);
    }
    Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams,
        faults: None,
    }
}

#[test]
fn boost_budget_is_shard_count_invariant() {
    let scenario = tight_scenario();
    let rt = prepare(&scenario);
    // Transient spikes that undefended levels cannot absorb force
    // watchdog escalation requests; one token per epoch makes the
    // budget bind.
    let mut chaos = FaultConfig::none();
    chaos.set("trace_spike", "0.35:1.5").unwrap();
    chaos.set("switch_reject", "0.25").unwrap();
    let plan = FaultPlan::new(7, chaos);
    let base = ShardConfig {
        epoch_s: 2e-3,
        boost_tokens_per_epoch: Some(1),
        degrade: true,
        ..ShardConfig::default()
    };
    let (r1, m1, _) = run_at(&rt, &base, 1, &plan);
    let (r4, m4, _) = run_at(&rt, &base, 4, &plan);
    assert!(
        r1.boosts_granted > 0,
        "scenario must exercise the boost budget"
    );
    assert!(r1.boosts_granted as u64 <= r1.epochs, "one token per epoch");
    assert_eq!(r1.boosts_granted, r4.boosts_granted);
    assert_eq!(r1.boosts_denied, r4.boosts_denied);
    assert_eq!(r1.boosts_applied, r4.boosts_applied);
    assert_eq!(m1, m4, "budgeted merged trace differs across shard counts");
    assert_same_streams(&r1.streams, &r4.streams);
}

/// Streams with deadlines barely above their benchmark's nominal
/// worst-case job, plus trace spikes the controller cannot absorb:
/// quarantine trips on consecutive misses, and quarantine's pinned
/// nominal level serves un-spiked jobs cleanly — so streams spend real
/// time *mid-probe*, with a partial clean-completion countdown.
fn quarantine_scenario() -> Scenario {
    let cache = TraceCache::new();
    let mut streams = Vec::new();
    for (i, bench_name) in ["sha", "md", "sha", "md", "sha", "md"].iter().enumerate() {
        let bench = by_name(bench_name).expect("benchmark registered");
        let mut probe_cfg = ExperimentConfig::paper_default(Platform::Asic);
        probe_cfg.size = WorkloadSize::Quick;
        let probe = Experiment::prepare_cached(bench, probe_cfg, &cache).expect("probe prepares");
        let (max_ms, _, _) = probe.exec_time_stats_ms();
        let mut spec = StreamSpec::new(bench);
        spec.name = format!("q{i}_{bench_name}");
        spec.deadline_s = 1.05 * max_ms * 1e-3;
        spec.period_s = 2.0 * spec.deadline_s;
        spec.jobs = 40;
        streams.push(spec);
    }
    Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams,
        faults: None,
    }
}

/// The quarantine probe countdown is the one piece of degradation state
/// that earlier conservation tests never pinned across migration. Here
/// every live stream is forcibly extracted and re-admitted into a fresh
/// engine at *every* epoch boundary — the worst-case migration schedule
/// — and the run must still reproduce the unmigrated reference exactly,
/// including each stream's quarantine count. The test also requires
/// that at least one extraction caught a stream mid-probe, so the
/// countdown demonstrably round-tripped through [`MigratedStream`].
#[test]
fn quarantine_probe_state_survives_forced_migration() {
    let scenario = quarantine_scenario();
    let rt = prepare(&scenario);
    let mut chaos = FaultConfig::none();
    chaos.set("trace_spike", "0.4:1.6").unwrap();
    let plan = FaultPlan::new(11, chaos);
    let cfg = EngineConfig {
        force: None,
        degrade: true,
        lean: false,
        defer_escalations: true,
        one_ahead_arrivals: true,
    };
    let gids: Vec<usize> = (0..6).collect();

    // Reference: one engine, never migrated.
    let mut reference = rt
        .engine(&gids, cfg.clone(), &NullSink, &plan)
        .expect("reference engine");
    let epoch_s = 2e-3;
    let mut t = 0.0;
    while !reference.is_idle() {
        t += epoch_s;
        reference.run_until(t).expect("reference epoch");
        assert!(t < 10.0, "reference run did not converge");
    }
    let mut expected: Vec<(usize, StreamResult)> = reference.finish();
    expected.sort_by_key(|(gid, _)| *gid);
    assert!(
        expected.iter().any(|(_, s)| s.quarantines > 0),
        "scenario must actually quarantine streams"
    );

    // Ping-pong: extract every live stream at every boundary, admit it
    // into a brand-new engine, and continue there.
    let mut eng = rt
        .engine(&gids, cfg.clone(), &NullSink, &plan)
        .expect("engine");
    let mut finished: Vec<(usize, StreamResult)> = Vec::new();
    let mut observed_mid_probe = false;
    let mut t = 0.0;
    while !eng.is_idle() {
        t += epoch_s;
        eng.run_until(t).expect("epoch");
        let mut next = rt
            .engine(&[], cfg.clone(), &NullSink, &plan)
            .expect("successor engine");
        for &gid in &gids {
            if let Some(migrated) = eng.extract_stream(gid) {
                if migrated.quarantine_probe().is_some() {
                    observed_mid_probe = true;
                }
                next.admit_stream(migrated);
            }
        }
        // Streams that already finished stay behind; collect them once.
        for (gid, s) in eng.finish() {
            if finished.iter().all(|(g, _)| *g != gid) {
                finished.push((gid, s));
            }
        }
        eng = next;
        assert!(t < 10.0, "migrated run did not converge");
    }
    finished.extend(eng.finish());
    finished.sort_by_key(|(gid, _)| *gid);

    assert!(
        observed_mid_probe,
        "no extraction caught a stream mid-probe; the round-trip was never exercised"
    );
    let expected_streams: Vec<StreamResult> = expected.into_iter().map(|(_, s)| s).collect();
    let finished_streams: Vec<StreamResult> = finished.into_iter().map(|(_, s)| s).collect();
    assert_same_streams(&expected_streams, &finished_streams);
}

#[test]
fn one_shard_matches_legacy_serial_engine_without_boosts() {
    let scenario = small_scenario();
    let rt = prepare(&scenario);
    // Degradation off: no watchdog, so deferral has nothing to defer
    // and the sharded run must reproduce the serial engine, whose one
    // time order is the oracle of the sharded event order: the same
    // counters, the same event count and the same merged trace, with and
    // without faults. The serial engine pops ties by slot, which is the
    // global stream id, so its own ring is already in the merged order.
    let base = ShardConfig {
        epoch_s: 2e-3,
        degrade: false,
        ..ShardConfig::default()
    };
    let plan = FaultPlan::new(7, FaultConfig::standard());
    for injector in [&NullInjector as &dyn FaultInjector, &plan] {
        let rec = Recorder::new(RING);
        let legacy = rt
            .run_chaos(None, &rec, injector, false)
            .expect("legacy run");
        assert_eq!(rec.ring().dropped(), 0, "ring too small for the test");
        let legacy_trace = merged_trace_jsonl(&rt, vec![rec.ring().snapshot()]);
        assert!(!legacy_trace.is_empty());
        assert_eq!(
            rec.ring().to_jsonl(),
            legacy_trace,
            "the serial engine emits in (t_s, gid) order"
        );
        for shards in [1, 4] {
            let (sharded, merged, _) = run_at(&rt, &base, shards, injector);
            assert_eq!(sharded.boosts_granted, 0);
            assert_same_streams(&legacy.streams, &sharded.streams);
            assert_eq!(sharded.events, legacy.events, "{shards} shards: events");
            assert_eq!(merged, legacy_trace, "{shards} shards: merged trace");
        }
    }
}

/// The sharded counterpart of the serve suite's
/// `engine_finishes_when_a_config_built_in_code_schedules_before_now`.
/// A jitter fraction above 1, which only a fault configuration built in
/// code can set, makes some execution times negative, which schedules
/// completions before the event being handled. The run must still
/// finish, conserve every job and merge to one trace on any shard count.
#[test]
fn sharded_run_finishes_when_a_config_built_in_code_schedules_before_now() {
    let scenario = Scenario::demo();
    let rt = prepare(&scenario);
    let mut faults = FaultConfig::none();
    faults.clock_jitter_p = 0.2;
    faults.clock_jitter_frac = 1.5;
    let plan = FaultPlan::new(7, faults);
    let base = ShardConfig {
        degrade: true,
        ..ShardConfig::default()
    };
    let (r1, m1, _) = run_at(&rt, &base, 1, &plan);
    let (r4, m4, _) = run_at(&rt, &base, 4, &plan);
    for s in &r1.streams {
        assert_eq!(s.completed() + s.shed, s.submitted, "stream {}", s.name);
    }
    assert!(!m1.is_empty());
    assert_eq!(m1, m4, "merged trace differs between 1 and 4 shards");
    assert_same_streams(&r1.streams, &r4.streams);
    assert_eq!(r1.events, r4.events);
}

/// Two quick streams of three jobs each, 100 s apart: about 4,000 epochs
/// of 50 ms, nearly all of them empty. At 1, 2 and 4 shards, fault-free
/// and under a plan that crashes shards, the per-stream results and the
/// merged trace must be the fault-free 1-shard run's.
#[test]
fn long_gap_schedule_is_shard_count_invariant_under_crashes() {
    let scenario = Scenario::parse(
        "size quick\nstream sha jobs=3 period_ms=1e5\nstream md jobs=3 period_ms=1e5\n",
    )
    .expect("scenario parses");
    let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
    let base = ShardConfig {
        checkpoint_every: Some(500),
        ..ShardConfig::default()
    };
    let (reference, m_ref, _) = run_at(&rt, &base, 1, &NullInjector);
    assert!(
        reference.epochs > 4_000,
        "{} epochs: the gaps must span thousands",
        reference.epochs
    );
    assert!(!m_ref.is_empty());
    let mut crashes = FaultConfig::none();
    crashes.shard_crash_p = 0.002;
    let plan = FaultPlan::new(7, crashes);
    for (injector, crashy) in [(&NullInjector as &dyn FaultInjector, false), (&plan, true)] {
        for shards in [1, 2, 4] {
            let (r, merged, _) = run_at(&rt, &base, shards, injector);
            assert_eq!(
                r.crashes > 0,
                crashy,
                "{shards} shards: {} crashes",
                r.crashes
            );
            assert_eq!(r.crashes, r.recoveries, "{shards} shards");
            assert_eq!(r.epochs, reference.epochs, "{shards} shards: epochs");
            assert_same_streams(&reference.streams, &r.streams);
            assert_eq!(r.events, reference.events, "{shards} shards: events");
            assert_eq!(
                merged, m_ref,
                "{shards} shards, crashes {crashy}: merged trace"
            );
        }
    }
}
