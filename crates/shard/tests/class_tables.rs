//! A class's slice and decision tables cover only the test jobs its
//! streams submit. Widening them must not change what any stream reads:
//! short h264 streams produce bit-identical results whether or not a
//! long stream of the same class stretches the tables over the whole
//! test set, on the legacy engine and on two shards alike. A class is a
//! (benchmark, seed) pair: streams that differ only in deadline share
//! one, and each still serves as it would alone.

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

#[test]
fn streams_that_differ_only_in_deadline_share_one_class() {
    let run = |streams: &[&str], cache: &TraceCache| {
        let scenario = Scenario::parse(&format!("size quick\n{}\n", streams.join("\n")))
            .expect("scenario parses");
        let rt = ServeRuntime::prepare(&scenario, cache).expect("prepare");
        rt.run().expect("run").streams
    };
    // Quick sha jobs meet a 2 ms deadline at the lowest level; 1 ms
    // needs a faster one.
    let both = [
        "stream sha name=a deadline_ms=16.7",
        "stream sha name=b deadline_ms=1",
    ];
    let cache = TraceCache::new();
    let together = run(&both, &cache);
    // One class: one trace pass, and no second lookup to hit.
    assert_eq!((cache.misses(), cache.hits()), (1, 0));
    assert_ne!(
        together[0].energy_pj.to_bits(),
        together[1].energy_pj.to_bits(),
        "the deadlines must lead to different levels"
    );
    for (stream, result) in both.iter().zip(&together) {
        assert_eq!(&run(&[stream], &TraceCache::new())[0], result, "{stream}");
    }
}
