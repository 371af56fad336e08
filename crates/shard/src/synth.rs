//! Deterministic synthetic scenario generation for scale runs.
//!
//! `fig_serve_scale` drives the sharded tier at ≥1M streams; checking a
//! million-line scenario file into the repo would be absurd, so the
//! bench (and the determinism suite) synthesize scenarios from a small
//! parametric spec instead. Generation is pure: the same [`SynthSpec`]
//! always yields the same [`Scenario`], byte for byte.
//!
//! Streams are grouped into *classes*: every stream in a class shares
//! its benchmark, workload seed, deadline, and job count, so the
//! prepare phase trains one model and simulates one job set per class
//! (the runtime trains once per benchmark and seed, and keeps only each
//! stream's class index) no matter how many streams fan out from it.
//! Arrival periods are staggered per stream so the streams' timelines
//! aren't one giant tie at every multiple of the period.

use predvfs_accel::{all, WorkloadSize};
use predvfs_serve::{Scenario, StreamSpec};
use predvfs_sim::Platform;

/// Parameters for a synthesized scale scenario.
#[derive(Debug, Clone, Copy)]
pub struct SynthSpec {
    /// Total stream count.
    pub streams: usize,
    /// Distinct stream classes (benchmark × seed groups);
    /// prepare cost scales with classes, not streams.
    pub classes: usize,
    /// Jobs submitted per stream.
    pub jobs_per_stream: usize,
    /// Base workload seed (class `c` uses `seed + c`).
    pub seed: u64,
}

impl SynthSpec {
    /// A spec for `streams` streams with the scale-run defaults: 8
    /// classes, 10 jobs per stream.
    pub fn new(streams: usize) -> SynthSpec {
        SynthSpec {
            streams,
            classes: 8,
            jobs_per_stream: 10,
            seed: 42,
        }
    }
}

/// Builds the scenario described by `spec`.
///
/// Stream `i` is named `s{i:07}` (unique, so the merged-trace rank map
/// is faithful), belongs to class `i % classes`, and otherwise starts
/// from [`StreamSpec::new`]: the paper's deadline, a queue bound of 4,
/// shedding on overload, and the predictive controller — scale runs
/// force [`ControllerKind::Cached`](predvfs_serve::ControllerKind::Cached)
/// at the shard layer instead of baking it into the scenario. Its
/// arrival period is the paper period staggered by a fixed per-stream
/// factor in `[1.0, 1.05)`.
///
/// # Panics
///
/// Panics if `spec.classes` is zero.
pub fn synth_scenario(spec: &SynthSpec) -> Scenario {
    assert!(spec.classes > 0, "synth scenario needs at least one class");
    let benches = all();
    let mut streams = Vec::with_capacity(spec.streams);
    for i in 0..spec.streams {
        let class = i % spec.classes;
        let bench = benches[class % benches.len()];
        // Deterministic stagger in [1.0, 1.05): spreads arrivals off
        // the common grid without touching the class-level dedupe keys
        // (benchmark, seed, jobs).
        let stagger = 1.0 + ((i.wrapping_mul(37)) % 101) as f64 * (0.05 / 101.0);
        let base = StreamSpec::new(bench);
        streams.push(StreamSpec {
            name: format!("s{i:07}"),
            period_s: base.period_s * stagger,
            jobs: spec.jobs_per_stream,
            seed: spec.seed + class as u64,
            ..base
        });
    }
    Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams,
        faults: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = synth_scenario(&SynthSpec::new(100));
        let b = synth_scenario(&SynthSpec::new(100));
        assert_eq!(a.streams.len(), 100);
        for (x, y) in a.streams.iter().zip(&b.streams) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.bench.name, y.bench.name);
            assert_eq!(x.seed, y.seed);
            assert!((x.period_s - y.period_s).abs() == 0.0);
        }
    }

    #[test]
    fn names_are_unique_and_classes_shared() {
        let spec = SynthSpec {
            classes: 3,
            ..SynthSpec::new(10)
        };
        let sc = synth_scenario(&spec);
        let names: std::collections::HashSet<_> =
            sc.streams.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 10);
        // Streams 0 and 3 share a class: same bench + seed.
        assert_eq!(sc.streams[0].bench.name, sc.streams[3].bench.name);
        assert_eq!(sc.streams[0].seed, sc.streams[3].seed);
        // Streams 0 and 1 differ in class seed.
        assert_ne!(sc.streams[0].seed, sc.streams[1].seed);
    }
}
