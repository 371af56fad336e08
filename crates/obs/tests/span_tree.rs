//! Integration tests of the span subsystem's contracts: hierarchical
//! nesting and per-name totals, panic-unwind safety, the disabled fast
//! path recording nothing, and virtual-domain determinism across thread
//! counts.
//!
//! The profile is process-global, so every test takes `GATE` first.

use std::sync::Mutex;

use predvfs_obs::{self as obs, SpanDomain};

static GATE: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh() -> std::sync::MutexGuard<'static, ()> {
    let guard = locked();
    obs::set_profiling(false);
    obs::self_profile().reset();
    guard
}

/// Collapsed `(path, self-ns)` pairs of the wall domain.
fn wall_stacks() -> Vec<(String, u64)> {
    obs::self_profile()
        .collapsed(SpanDomain::Wall)
        .lines()
        .filter_map(|l| {
            let (path, ns) = l.rsplit_once(' ')?;
            Some((path.to_owned(), ns.parse().ok()?))
        })
        .collect()
}

/// Collapsed paths only (values are host timings and nondeterministic).
fn wall_paths() -> Vec<String> {
    wall_stacks().into_iter().map(|(path, _)| path).collect()
}

#[test]
fn nested_guards_build_a_hierarchy_across_call_frames() {
    let _g = fresh();
    obs::set_profiling(true);
    fn leaf() {
        let _s = obs::span("leaf");
    }
    fn middle() {
        let _s = obs::span("middle");
        leaf();
        leaf();
    }
    {
        let _root = obs::span("root");
        middle();
        middle();
        middle();
        // `leaf` is also reached directly, so two paths end in it.
        leaf();
    }
    obs::set_profiling(false);
    let stacks = wall_stacks();
    assert_eq!(
        wall_paths(),
        ["root", "root;leaf", "root;middle", "root;middle;leaf"],
        "collapsed:\n{}",
        obs::self_profile().collapsed(SpanDomain::Wall)
    );

    // Totals are per name, summed over every path that ends in it.
    let totals = obs::self_profile().totals(SpanDomain::Wall);
    assert_eq!(
        totals
            .iter()
            .map(|(&n, t)| (n, t.calls))
            .collect::<Vec<_>>(),
        [("leaf", 7), ("middle", 3), ("root", 1)]
    );
    // A leaf's self time is its inclusive time, so the `leaf` total is
    // exactly the sum of its two stacks.
    let self_ns = |path: &str| {
        stacks
            .iter()
            .find(|(p, _)| p == path)
            .map_or(0, |&(_, ns)| ns)
    };
    assert_eq!(
        totals["leaf"].ns,
        self_ns("root;leaf") + self_ns("root;middle;leaf")
    );
    // Inclusive time: the root's total is every stack's self time.
    assert_eq!(
        totals["root"].ns,
        stacks.iter().map(|(_, ns)| ns).sum::<u64>()
    );
}

#[test]
fn panicking_span_unwinds_without_corrupting_the_tree() {
    let _g = fresh();
    obs::set_profiling(true);
    let caught = std::panic::catch_unwind(|| {
        let _outer = obs::span("unwind_outer");
        let _inner = obs::span("unwind_inner");
        panic!("die with spans open");
    });
    assert!(caught.is_err());
    // The tree must still accept new spans, and the next root-pop must
    // flush a coherent hierarchy including the unwound frames.
    {
        let _after = obs::span("after_panic");
    }
    obs::set_profiling(false);
    let paths = wall_paths();
    assert!(
        paths.iter().any(|p| p == "after_panic"),
        "post-panic span missing: {paths:?}"
    );
    assert!(
        paths.iter().any(|p| p.starts_with("unwind_outer")),
        "unwound spans lost: {paths:?}"
    );
}

#[test]
fn disabled_spans_leave_profile_empty_like_a_null_sink() {
    let _g = fresh();
    // Overhead smoke: with profiling off, a workload full of span
    // callsites must behave exactly like uninstrumented code — the
    // profile stays empty in both domains (the NullSink analogue: no
    // state, no clock reads, nothing to flush).
    for _ in 0..10_000 {
        let _a = obs::span("disabled_outer");
        let _b = obs::span("disabled_inner");
        obs::record_virtual(&["disabled", "virtual"], 1.0);
    }
    assert_eq!(obs::self_profile().collapsed(SpanDomain::Wall), "");
    assert_eq!(obs::self_profile().collapsed(SpanDomain::Virtual), "");
    assert!(obs::self_profile().totals(SpanDomain::Wall).is_empty());
    assert!(obs::self_profile().totals(SpanDomain::Virtual).is_empty());
}

#[test]
fn virtual_collapsed_output_is_identical_across_thread_counts() {
    let _g = fresh();
    // The same logical work split over 1, 2, and 4 threads must produce
    // byte-identical virtual flamegraphs: explicit paths + commutative
    // sums make the tree independent of interleaving.
    const PATHS: [&[&str]; 3] = [
        &["serve", "job", "response"],
        &["serve", "dispatch", "arrival"],
        &["shard", "epoch"],
    ];
    let work: Vec<(usize, f64)> = (0..240)
        .map(|i| (i % PATHS.len(), (i + 1) as f64 * 1e-6))
        .collect();
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 4] {
        obs::self_profile().reset();
        obs::set_profiling(true);
        std::thread::scope(|s| {
            for chunk in work.chunks(work.len().div_ceil(threads)) {
                s.spawn(move || {
                    for &(which, seconds) in chunk {
                        obs::record_virtual(PATHS[which], seconds);
                    }
                });
            }
        });
        obs::set_profiling(false);
        outputs.push(obs::self_profile().collapsed(SpanDomain::Virtual));
    }
    assert!(!outputs[0].is_empty());
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads diverged");
    assert_eq!(outputs[0], outputs[2], "1 vs 4 threads diverged");
    obs::self_profile().reset();
}
