//! A class's slice and decision tables cover only the test jobs its
//! streams submit. Widening them must not change what any stream reads:
//! short h264 streams produce bit-identical results whether or not a
//! long stream of the same class stretches the tables over the whole
//! test set, on the legacy engine and on two shards alike.

use predvfs_accel::{by_name, WorkloadSize};
use predvfs_faults::NullInjector;
use predvfs_obs::NullSink;
use predvfs_serve::{ControllerKind, Scenario, ServeRuntime, StreamResult, StreamSpec};
use predvfs_shard::{run_sharded, ShardConfig};
use predvfs_sim::{Platform, TraceCache};

fn h264(name: &str, jobs: usize, controller: ControllerKind) -> StreamSpec {
    StreamSpec {
        name: name.to_owned(),
        jobs,
        controller,
        ..StreamSpec::new(by_name("h264").expect("h264 benchmark"))
    }
}

/// The two short streams' results on the legacy engine and on two
/// shards, with `extra` streams appended to the scenario.
fn short_results(extra: &[StreamSpec]) -> [Vec<StreamResult>; 2] {
    let mut streams = vec![
        h264("short-5", 5, ControllerKind::Predictive),
        h264("short-12", 12, ControllerKind::Cached),
    ];
    streams.extend_from_slice(extra);
    let scenario = Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams,
        faults: None,
    };
    let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
    let legacy = rt.run().expect("legacy run").streams;
    let config = ShardConfig {
        shards: 2,
        ..ShardConfig::default()
    };
    let sharded = run_sharded(&rt, &config, &[], &NullSink, &NullInjector)
        .expect("sharded run")
        .streams;
    [legacy, sharded].map(|mut r| {
        r.truncate(2);
        r
    })
}

#[test]
fn short_streams_read_the_same_entries_from_wider_tables() {
    let narrow = short_results(&[]);
    let long = h264("long-200", 200, ControllerKind::Predictive);
    let wide = short_results(&[long]);
    for (posture, (a, b)) in ["legacy", "2 shards"].iter().zip(narrow.iter().zip(&wide)) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.done, x.submitted, "{posture} {}: all jobs done", x.name);
            assert_eq!(
                x.energy_pj.to_bits(),
                y.energy_pj.to_bits(),
                "{posture} {}: energy",
                x.name
            );
            assert_eq!(x.records, y.records, "{posture} {}: records", x.name);
            assert_eq!(x, y, "{posture} {}", x.name);
        }
    }
}
