//! Lean mode is allocation-flat: building a lean engine on predictive
//! decisions (`Cached` or `Predictive`, which serve runs as one path),
//! and checkpointing it, allocate nothing per stream, and dropping the
//! checkpoint frees nothing per stream.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread (so tests running alongside on other threads do not
//! reach the count). The engine is built over 1,024 and then 4,096
//! streams of one class, with the class's tables warmed first, in the
//! sharded posture: a stream-major drain and deferred escalations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use predvfs_accel::WorkloadSize;
use predvfs_faults::NullInjector;
use predvfs_obs::NullSink;
use predvfs_serve::{ControllerKind, EngineConfig, Scenario, ServeRuntime, StreamSpec};
use predvfs_sim::{Platform, TraceCache};

thread_local! {
    /// (allocations, deallocations) made on this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every operation is delegated to `System`; the side counters are
// thread-local and touched with non-reentrant `Cell` operations.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTS.try_with(|c| c.set((c.get().0 + 1, c.get().1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = COUNTS.try_with(|c| c.set((c.get().0, c.get().1 + 1)));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNTS.try_with(|c| c.set((c.get().0 + 1, c.get().1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and deallocations `f` makes on this thread, and its value.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (a0, d0) = COUNTS.with(Cell::get);
    let out = f();
    let (a1, d1) = COUNTS.with(Cell::get);
    (a1 - a0, d1 - d0, out)
}

/// `streams` streams of one class, each named on its own.
fn scenario(streams: usize) -> Scenario {
    let bench = predvfs_accel::by_name("sha").expect("sha benchmark");
    Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams: (0..streams)
            .map(|i| StreamSpec {
                name: format!("s{i:05}"),
                jobs: 6,
                ..StreamSpec::new(bench)
            })
            .collect(),
        faults: None,
    }
}

/// Build, checkpoint and snapshot-drop allocation counts at `streams`
/// streams forced onto `kind`.
fn measure(streams: usize, kind: ControllerKind) -> (u64, u64, u64) {
    let scenario = scenario(streams);
    let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
    rt.warm_cached_tables(Some(kind)).expect("warm tables");
    let config = EngineConfig {
        force: Some(kind),
        lean: true,
        defer_escalations: true,
        one_ahead_arrivals: true,
        ..EngineConfig::default()
    };
    let members: Vec<usize> = (0..streams).collect();
    let (build, _, engine) = counted(|| rt.engine(&members, config, &NullSink, &NullInjector));
    let mut engine = engine.expect("engine");
    // The shard tier's first epoch boundary (its default 50 ms epoch).
    engine.run_until(0.05).expect("run");
    let (checkpoint, _, snapshot) = counted(|| engine.checkpoint());
    assert_eq!(snapshot.streams.len(), streams);
    let (_, dropped, ()) = counted(|| drop(snapshot));
    (build, checkpoint, dropped)
}

#[test]
fn lean_engine_build_and_checkpoint_allocate_nothing_per_stream() {
    for kind in [ControllerKind::Cached, ControllerKind::Predictive] {
        let small = measure(1024, kind);
        let large = measure(4096, kind);
        assert_eq!(
            small.0, large.0,
            "{kind:?}: build allocations grow with the stream count: {} at 1,024 streams, {} at 4,096",
            small.0, large.0
        );
        assert_eq!(
            small.1, large.1,
            "{kind:?}: checkpoint allocations grow with the stream count: {} at 1,024 streams, {} at 4,096",
            small.1, large.1
        );
        assert_eq!(
            small.2, large.2,
            "{kind:?}: dropping a checkpoint frees per stream: {} blocks at 1,024 streams, {} at 4,096",
            small.2, large.2
        );
    }
}
