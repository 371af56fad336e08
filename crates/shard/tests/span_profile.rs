//! Virtual-clock span profiles join the sharded tier's determinism
//! contract: with profiling on, the collapsed virtual flamegraph of one
//! workload is byte-identical across shard counts and across repeat
//! runs, and crash-recovery replay under a NullSink recovery engine adds
//! nothing (replayed work is invisible to the profile, exactly as it is
//! to the trace).

use predvfs_faults::{FaultConfig, FaultInjector, FaultPlan, NullInjector};
use predvfs_obs::{NullSink, ObsSink, Recorder, SpanDomain};
use predvfs_serve::ServeRuntime;
use predvfs_shard::{run_sharded, synth_scenario, ShardConfig, SynthSpec};
use predvfs_sim::TraceCache;

/// Runs the workload at `shards` with profiling on and returns the
/// collapsed virtual-domain profile.
fn virtual_flame(rt: &ServeRuntime, shards: usize, injector: &dyn FaultInjector) -> String {
    let recorders: Vec<Recorder> = (0..shards).map(|_| Recorder::new(1 << 20)).collect();
    let sinks: Vec<&dyn ObsSink> = recorders.iter().map(|r| r as &dyn ObsSink).collect();
    let config = ShardConfig {
        shards,
        lean: false,
        ..ShardConfig::default()
    };
    predvfs_obs::self_profile().reset();
    predvfs_obs::set_profiling(true);
    run_sharded(rt, &config, &sinks, &NullSink, injector).expect("sharded run");
    predvfs_obs::set_profiling(false);
    let flame = predvfs_obs::self_profile().collapsed(SpanDomain::Virtual);
    predvfs_obs::self_profile().reset();
    flame
}

#[test]
fn virtual_flamegraph_is_shard_count_invariant_and_replay_blind() {
    let scenario = synth_scenario(&SynthSpec {
        streams: 192,
        jobs_per_stream: 4,
        ..SynthSpec::new(192)
    });
    let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");

    let reference = virtual_flame(&rt, 1, &NullInjector);
    assert!(
        !reference.is_empty(),
        "profiled run recorded no virtual spans"
    );
    assert!(
        reference.lines().any(|l| l.starts_with("serve;dispatch;")),
        "dispatch spans missing:\n{reference}"
    );

    // Shard-count invariance: same workload, more workers, same bytes.
    for shards in [2usize, 4] {
        let flame = virtual_flame(&rt, shards, &NullInjector);
        assert_eq!(
            reference, flame,
            "virtual flamegraph differs between 1 and {shards} shards"
        );
    }

    // Run-to-run stability at a fixed shard count.
    let again = virtual_flame(&rt, 4, &NullInjector);
    assert_eq!(reference, again, "virtual flamegraph not reproducible");

    // Crash-recovery replay runs events through a NullSink engine; the
    // `profiling_enabled() && sink.enabled()` gate must keep that replay
    // out of the profile, so a crashy run still matches byte-for-byte.
    let mut mix = FaultConfig::coordinator();
    mix.shard_crash_p = 0.25;
    let plan = FaultPlan::new(7, mix);
    let crashy = virtual_flame(&rt, 4, &plan);
    assert_eq!(
        reference, crashy,
        "crash-recovery replay leaked into the virtual profile"
    );
}
