//! Crash recovery, pinned:
//!
//! 1. a [`ShardSnapshot`]'s canonical byte rendering is run-to-run
//!    identical (no hasher seeding or iteration order reaches it);
//! 2. a shard crash at *any* (epoch, shard, shard count, checkpoint
//!    cadence) — proptest-chosen — recovers to a run whose merged trace
//!    is byte-identical to the fault-free run and whose per-stream
//!    results conserve every job;
//! 3. the same holds for a double crash of one shard and for crashes
//!    landing in the middle of a migration storm.
//!
//! The merged-trace comparison needs no event filtering: recovery meta
//! events (`checkpoint`/`shard_crash`/`recover`) are scoped to the
//! shard, not to a stream, so [`merged_trace_jsonl`] drops them by
//! construction.

use std::sync::OnceLock;

use predvfs_faults::{FaultConfig, FaultInjector, FaultPlan, NullInjector};
use predvfs_obs::{NullSink, ObsSink, Recorder};
use predvfs_serve::{ControllerKind, DegradeConfig, EngineConfig, ServeRuntime, StreamResult};
use predvfs_shard::{
    merged_trace_jsonl, run_sharded, synth_scenario, MigrationConfig, ShardConfig, ShardSnapshot,
    ShardedResult, SynthSpec,
};
use predvfs_sim::TraceCache;
use proptest::prelude::*;

const RING: usize = 1 << 20;

/// Crashes exactly at the scheduled `(shard, epoch)` pairs and nothing
/// else. `enabled()` is true so the shard tier maintains its journal —
/// the same state a probabilistic chaos plan would induce — which makes
/// the empty schedule the natural fault-free reference.
#[derive(Debug, Clone, Default)]
struct CrashAt {
    schedule: Vec<(usize, u64)>,
}

impl FaultInjector for CrashAt {
    fn enabled(&self) -> bool {
        true
    }

    fn shard_crash(&self, shard: usize, epoch: u64) -> bool {
        self.schedule.contains(&(shard, epoch))
    }
}

fn small_runtime() -> &'static ServeRuntime {
    static RT: OnceLock<ServeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        let spec = SynthSpec {
            streams: 24,
            classes: 3,
            jobs_per_stream: 6,
            ..SynthSpec::new(24)
        };
        ServeRuntime::prepare(&synth_scenario(&spec), &TraceCache::new()).expect("prepare")
    })
}

fn run_at(
    rt: &ServeRuntime,
    config: &ShardConfig,
    injector: &dyn FaultInjector,
) -> (ShardedResult, String) {
    let recorders: Vec<Recorder> = (0..config.shards).map(|_| Recorder::new(RING)).collect();
    let sinks: Vec<&dyn ObsSink> = recorders.iter().map(|r| r as &dyn ObsSink).collect();
    let result = run_sharded(rt, config, &sinks, &NullSink, injector).expect("sharded run");
    let merged = merged_trace_jsonl(rt, recorders.iter().map(|r| r.ring().snapshot()).collect());
    for r in &recorders {
        assert_eq!(r.ring().dropped(), 0, "ring too small for the test");
    }
    (result, merged)
}

fn config_at(shards: usize, checkpoint_every: Option<u64>) -> ShardConfig {
    ShardConfig {
        shards,
        epoch_s: 1e-3,
        degrade: DegradeConfig::enabled(),
        checkpoint_every,
        ..ShardConfig::default()
    }
}

fn assert_conserved(r: &ShardedResult) {
    for s in &r.streams {
        assert_eq!(
            s.completed() + s.shed,
            s.submitted,
            "{}: done + shed != submitted",
            s.name
        );
    }
}

fn assert_matches_reference(faulty: &ShardedResult, reference: &ShardedResult) {
    assert_eq!(faulty.streams.len(), reference.streams.len());
    assert_eq!(faulty.jobs_done, reference.jobs_done);
    for (x, y) in faulty.streams.iter().zip(&reference.streams) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.submitted, y.submitted, "{}", x.name);
        assert_eq!(x.completed(), y.completed(), "{}", x.name);
        assert_eq!(x.misses(), y.misses(), "{}", x.name);
        assert_eq!(x.shed, y.shed, "{}", x.name);
        assert_eq!(x.quarantines, y.quarantines, "{}", x.name);
        assert_eq!(
            x.total_energy_pj().to_bits(),
            y.total_energy_pj().to_bits(),
            "{}",
            x.name
        );
    }
}

/// Snapshot bytes are run-to-run identical, and pinned. Two engines
/// prepared and advanced identically must render byte-identical
/// checkpoints with equal digests — the canonical rendering never
/// touches hasher-seeded iteration order. Each rendering's length and
/// digest are also checked against constants recorded before the
/// stream state was compacted, so a layout change that alters what a
/// checkpoint captures fails here even though two runs of one build
/// agree. Three postures are pinned: full records with the degradation
/// machinery on; lean `Cached` decisions, the scale benchmark's posture;
/// and a standard fault plan, whose checkpoint renders queued jobs,
/// in-flight jobs and quarantined streams.
#[test]
fn snapshot_bytes_identical_run_to_run() {
    let rt = small_runtime();
    let full = EngineConfig {
        force: None,
        degrade: DegradeConfig::enabled(),
        lean: false,
        defer_escalations: true,
        one_ahead_arrivals: true,
    };
    let lean_cached = EngineConfig {
        force: Some(ControllerKind::Cached),
        degrade: DegradeConfig::disabled(),
        lean: true,
        ..full.clone()
    };
    let faults = FaultPlan::new(7, FaultConfig::standard());
    let cases: [(&str, EngineConfig, &dyn FaultInjector, f64, usize, u64); 3] = [
        (
            "full records",
            full.clone(),
            &NullInjector,
            3e-3,
            5965,
            0xb1bc_a7bb_3a3d_c72a,
        ),
        (
            "lean cached",
            lean_cached,
            &NullInjector,
            3e-3,
            4631,
            0x3345_ad1d_bf8a_a1e2,
        ),
        (
            "standard faults",
            full,
            &faults,
            70e-3,
            8309,
            0x1706_ea28_f79e_65af,
        ),
    ];
    let gids: Vec<usize> = (0..24).collect();
    for (name, cfg, injector, t_end, pinned_len, pinned_digest) in cases {
        let mut render = Vec::new();
        let mut digest = Vec::new();
        for _ in 0..2 {
            let mut eng = rt
                .engine(&gids, cfg.clone(), &NullSink, injector)
                .expect("engine");
            eng.run_until(t_end).expect("run");
            let snap = ShardSnapshot {
                epoch: 2,
                checkpoint: eng.checkpoint(),
            };
            render.push(snap.render());
            digest.push(snap.digest());
        }
        assert!(
            render[0].lines().count() > 24,
            "{name}: snapshot must carry per-stream state"
        );
        assert_eq!(
            render[0], render[1],
            "{name}: snapshot bytes differ run to run"
        );
        assert_eq!(digest[0], digest[1], "{name}");
        assert_eq!(
            (render[0].len(), digest[0]),
            (pinned_len, pinned_digest),
            "{name}: checkpoint bytes moved"
        );
        if name == "standard faults" {
            for (what, needle) in [
                ("a queued job", " q=("),
                ("an in-flight job", " fly=("),
                ("a quarantined stream", "quar=Some"),
            ] {
                assert!(render[0].contains(needle), "{name}: renders no {what}");
            }
        }
    }
}

/// A known crash: shard 1 dies at epoch 2 of a 4-shard run with a
/// 2-epoch checkpoint cadence. Everything observable must match the
/// fault-free run, and the recovery bookkeeping must show exactly one
/// crash recovered from the epoch-1 snapshot (one replayed epoch).
#[test]
fn single_crash_is_invisible_in_the_merged_trace() {
    let rt = small_runtime();
    let config = config_at(4, Some(2));
    let (reference, m_ref) = run_at(rt, &config, &CrashAt::default());
    let (faulty, m_faulty) = run_at(
        rt,
        &config,
        &CrashAt {
            schedule: vec![(1, 2)],
        },
    );

    assert!(
        reference.epochs > 3,
        "run too short to host the scheduled crash (epochs={})",
        reference.epochs
    );
    assert_eq!(faulty.crashes, 1);
    assert_eq!(faulty.recoveries, 1);
    // Snapshot at the end of epoch 1 → replay covers epoch 2 only.
    assert_eq!(faulty.replayed_epochs, 1);
    assert!(faulty.checkpoints > 0);

    assert!(!m_ref.is_empty());
    assert_eq!(m_ref, m_faulty, "crash left a scar in the merged trace");
    assert_matches_reference(&faulty, &reference);
    assert_conserved(&faulty);

    // The journal-maintaining injector itself is trace-neutral: with an
    // empty schedule it reproduces the NullInjector run exactly.
    let (_, m_null) = run_at(rt, &config, &NullInjector);
    assert_eq!(m_null, m_ref, "journaling bookkeeping leaked into traces");
}

/// Without any checkpoint the journal reaches back to epoch 0 and
/// recovery replays the shard's entire history.
#[test]
fn crash_without_checkpoint_replays_from_genesis() {
    let rt = small_runtime();
    let config = config_at(3, None);
    let (reference, m_ref) = run_at(rt, &config, &CrashAt::default());
    let (faulty, m_faulty) = run_at(
        rt,
        &config,
        &CrashAt {
            schedule: vec![(2, 3)],
        },
    );
    assert_eq!(faulty.crashes, 1);
    assert_eq!(faulty.recoveries, 1);
    assert_eq!(faulty.checkpoints, 0);
    assert_eq!(faulty.replayed_epochs, 4, "epochs 0..=3 re-executed");
    assert_eq!(m_ref, m_faulty);
    assert_matches_reference(&faulty, &reference);
}

/// Satellite: the same shard crashes twice. The second recovery rebuilds
/// from a snapshot the *recovered* engine captured, so this pins that a
/// post-recovery engine is checkpoint-equivalent to the lost one.
#[test]
fn double_crash_of_one_shard_recovers() {
    let rt = small_runtime();
    let config = config_at(4, Some(2));
    let (reference, m_ref) = run_at(rt, &config, &CrashAt::default());
    let (faulty, m_faulty) = run_at(
        rt,
        &config,
        &CrashAt {
            schedule: vec![(1, 2), (1, 4)],
        },
    );
    assert!(
        reference.epochs > 5,
        "run too short for the double crash (epochs={})",
        reference.epochs
    );
    assert_eq!(faulty.crashes, 2);
    assert_eq!(faulty.recoveries, 2);
    assert_eq!(m_ref, m_faulty, "double crash left a scar");
    assert_matches_reference(&faulty, &reference);
    assert_conserved(&faulty);
}

/// Satellite: crashes landing mid-migration-storm. The imbalanced
/// scenario forces sustained migration off shard 0; crashing both the
/// donor and the recipient around those epochs exercises recovery of
/// journaled outbound extractions and inbound admission clones.
#[test]
fn crash_during_migration_conserves_streams() {
    let spec = SynthSpec {
        streams: 12,
        classes: 2,
        jobs_per_stream: 8,
        ..SynthSpec::new(12)
    };
    let mut scenario = synth_scenario(&spec);
    for (gid, s) in scenario.streams.iter_mut().enumerate() {
        if gid % 2 == 0 {
            s.period_s = 0.05e-3;
            s.queue_bound = 8;
            s.jobs = 40;
        }
    }
    let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
    let config = ShardConfig {
        shards: 2,
        epoch_s: 0.5e-3,
        migration: MigrationConfig {
            enabled: true,
            imbalance_ratio: 2.0,
            sustain_epochs: 2,
            max_moves_per_epoch: 2,
        },
        checkpoint_every: Some(2),
        ..ShardConfig::default()
    };
    let (reference, m_ref) = run_at(&rt, &config, &CrashAt::default());
    assert!(
        reference.migrations > 0,
        "structural imbalance must trigger migration"
    );
    // Crash the donor right after the migration window opens and the
    // recipient a little later; sustain_epochs=2 puts the first moves
    // at epoch 2+.
    let (faulty, m_faulty) = run_at(
        &rt,
        &config,
        &CrashAt {
            schedule: vec![(0, 3), (1, 4), (0, 6)],
        },
    );
    assert!(faulty.crashes > 0);
    assert_eq!(faulty.crashes, faulty.recoveries);
    assert_eq!(faulty.migrations, reference.migrations);
    assert_eq!(m_ref, m_faulty, "mid-migration crash left a scar");
    assert_matches_reference(&faulty, &reference);
    assert_conserved(&faulty);
}

fn stream_names(streams: &[StreamResult]) -> Vec<&str> {
    streams.iter().map(|s| s.name.as_str()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole acceptance: a crash at ANY (epoch, shard, shard count,
    /// checkpoint cadence) is invisible — merged trace byte-identical to
    /// the fault-free reference at the same shard count, every stream
    /// present, every job conserved. Epochs past the run's end simply
    /// never fire, which the property tolerates by construction.
    #[test]
    fn any_crash_recovers_to_the_fault_free_run(
        shards in 2usize..=5,
        crash_epoch in 0u64..10,
        crash_shard_seed in 0usize..5,
        every in 0u64..=4,
    ) {
        let rt = small_runtime();
        let crash_shard = crash_shard_seed % shards;
        let checkpoint_every = (every > 0).then_some(every);
        let config = config_at(shards, checkpoint_every);
        let (reference, m_ref) = run_at(rt, &config, &CrashAt::default());
        let (faulty, m_faulty) = run_at(rt, &config, &CrashAt {
            schedule: vec![(crash_shard, crash_epoch)],
        });
        prop_assert_eq!(
            stream_names(&faulty.streams),
            stream_names(&reference.streams),
            "stream set not conserved"
        );
        assert_matches_reference(&faulty, &reference);
        assert_conserved(&faulty);
        prop_assert_eq!(m_ref, m_faulty, "crash left a scar in the merged trace");
        if crash_epoch < reference.epochs.saturating_sub(1) {
            prop_assert_eq!(faulty.crashes, 1, "scheduled crash never fired");
            prop_assert_eq!(faulty.recoveries, 1);
        }
    }
}
