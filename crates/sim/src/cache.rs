//! Shared trace cache: one simulation pass per `(benchmark, seed, size)`.
//!
//! Preparing an [`Experiment`](crate::Experiment) is dominated by trace
//! simulation — profiling the training set and running the test set at
//! nominal frequency. Neither depends on the platform, the switching
//! model, the trainer hyper-parameters, or the slice flavor, so two
//! configurations that differ only in those knobs (e.g. the ASIC and
//! FPGA variants of one benchmark, or an ablation grid) can share a
//! single pass. [`TraceCache`] memoizes the expensive part as a
//! [`TraceBundle`] keyed by `(benchmark name, seed, size)`; `repro`
//! holds one cache for all its exhibits and calls
//! [`Experiment::prepare_cached`](crate::Experiment::prepare_cached).
//!
//! Cached bundles also carry the training-set traces that
//! `train::profile` already computed, so leakage calibration reads them
//! instead of re-simulating the first 20 training jobs. Probes are
//! timing-neutral, making the reuse bit-identical to a fresh unprobed
//! run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use predvfs::train::{self, TrainingData};
use predvfs_accel::{Benchmark, WorkloadSize, Workloads};
use predvfs_rtl::{CompiledSim, ExecMode, JobTrace, Module};

/// Everything about one `(benchmark, seed, size)` that requires trace
/// simulation: the generated workloads, the profiled training data
/// (including per-job traces), and the nominal-frequency test traces.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// The generated train/test job sets.
    pub workloads: Workloads,
    /// Profiled training data; `data.traces` holds the per-job traces.
    pub data: TrainingData,
    /// Per-test-job traces at nominal frequency (unprobed).
    pub test_traces: Vec<JobTrace>,
}

impl TraceBundle {
    /// Generates workloads and simulates both job sets for `bench`.
    ///
    /// Training jobs are profiled (probed) and test jobs run unprobed,
    /// both fanned out in parallel with input-order collection, so the
    /// bundle is bit-identical to a serial pass.
    ///
    /// # Errors
    ///
    /// Propagates profiling and simulation failures.
    pub fn simulate(
        module: &Module,
        bench: &Benchmark,
        seed: u64,
        size: WorkloadSize,
    ) -> Result<TraceBundle, predvfs::CoreError> {
        let workloads = (bench.workloads)(seed, size);
        let data = train::profile(module, &workloads.train)?;
        let sim = CompiledSim::new(module)?;
        let test_traces = predvfs_par::par_try_map(&workloads.test, |job| {
            sim.run(job, ExecMode::FastForward, None)
        })?;
        Ok(TraceBundle {
            workloads,
            data,
            test_traces,
        })
    }
}

/// A memo key: `(benchmark name, seed, size)`.
type Key = (String, u64, WorkloadSize);

/// One key's bundle, empty until a trace pass for the key succeeds. The
/// caller that finds it empty runs the pass while holding its lock, so
/// concurrent callers of the same key wait for that pass instead of
/// starting their own.
type Slot = Arc<Mutex<Option<Arc<TraceBundle>>>>;

/// A thread-safe memo of [`TraceBundle`]s keyed by
/// `(benchmark name, seed, size)`.
#[derive(Debug, Default)]
pub struct TraceCache {
    inner: Mutex<HashMap<Key, Slot>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Locks `m`, recovering from poisoning.
///
/// The map is insert-only and a slot is written once, by a pass that
/// completed (bundles are immutable `Arc`s), so a guard abandoned by a
/// panicking worker still protects a fully consistent snapshot: a slot
/// whose pass panicked is simply still empty. Recovering here keeps one
/// panicked closure in a parallel fan-out from cascading poison panics
/// into every other worker's lookups.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// Returns the bundle for `(bench.name, seed, size)`, simulating it
    /// on first use.
    ///
    /// Each key gets one trace pass: a caller that arrives while another
    /// caller's pass for the same key runs waits for it and counts a
    /// hit. The map lock is not held during a pass, so lookups of other
    /// keys proceed.
    ///
    /// `module` must be the module built by `bench` (callers have
    /// already built it to derive area/energy models; rebuilding here
    /// would waste that work).
    ///
    /// # Errors
    ///
    /// Propagates [`TraceBundle::simulate`] failures; errors are not
    /// cached, so the next caller of the key runs the pass again.
    pub fn get_or_simulate(
        &self,
        bench: &Benchmark,
        module: &Module,
        seed: u64,
        size: WorkloadSize,
    ) -> Result<Arc<TraceBundle>, predvfs::CoreError> {
        let slot = Arc::clone(
            lock(&self.inner)
                .entry((bench.name.to_owned(), seed, size))
                .or_default(),
        );
        let mut filled = lock(&slot);
        if let Some(bundle) = &*filled {
            let _span = predvfs_obs::span("cache.hit");
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(bundle));
        }
        // The miss span prices the whole simulate-and-insert path, so a
        // hit/miss flame split shows where preparation time actually goes.
        let _span = predvfs_obs::span("cache.miss");
        self.misses.fetch_add(1, Ordering::Relaxed);
        let bundle = Arc::new(TraceBundle::simulate(module, bench, seed, size)?);
        *filled = Some(Arc::clone(&bundle));
        Ok(bundle)
    }

    /// Number of cached bundles. Waits for any trace pass in flight.
    pub fn len(&self) -> usize {
        let slots: Vec<Slot> = lock(&self.inner).values().cloned().collect();
        slots.iter().filter(|slot| lock(slot).is_some()).count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required simulation.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_accel::by_name;

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_bundle() {
        let bench = by_name("sha").unwrap();
        let module = (bench.build)();
        let cache = TraceCache::new();
        let a = cache
            .get_or_simulate(&bench, &module, 42, WorkloadSize::Quick)
            .unwrap();
        let b = cache
            .get_or_simulate(&bench, &module, 42, WorkloadSize::Quick)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_first_lookups_share_one_pass() {
        let bench = by_name("sha").unwrap();
        let module = (bench.build)();
        let cache = TraceCache::new();
        let start = std::sync::Barrier::new(2);
        let lookup = || {
            start.wait();
            cache
                .get_or_simulate(&bench, &module, 42, WorkloadSize::Quick)
                .unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(lookup);
            let b = s.spawn(lookup);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_seeds_get_distinct_bundles() {
        let bench = by_name("sha").unwrap();
        let module = (bench.build)();
        let cache = TraceCache::new();
        let a = cache
            .get_or_simulate(&bench, &module, 1, WorkloadSize::Quick)
            .unwrap();
        let b = cache
            .get_or_simulate(&bench, &module, 2, WorkloadSize::Quick)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let bench = by_name("sha").unwrap();
        let module = (bench.build)();
        let cache = TraceCache::new();
        cache
            .get_or_simulate(&bench, &module, 42, WorkloadSize::Quick)
            .unwrap();
        // Poison the memo mutex the way a dying fan-out worker would: by
        // panicking while holding the guard. Before the recovery fix this
        // turned every later lookup into a "cache poisoned" panic.
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("worker dies while holding the cache lock");
            })
            .join()
        });
        assert!(worker.is_err(), "the worker must have panicked");
        assert!(cache.inner.is_poisoned());
        // Subsequent lookups see the intact insert-only snapshot.
        assert_eq!(cache.len(), 1);
        let again = cache
            .get_or_simulate(&bench, &module, 42, WorkloadSize::Quick)
            .expect("lookup after poisoning must succeed");
        assert_eq!(again.workloads.test.len(), again.test_traces.len());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn bundle_traces_match_training_rows() {
        let bench = by_name("aes").unwrap();
        let module = (bench.build)();
        let bundle = TraceBundle::simulate(&module, &bench, 42, WorkloadSize::Quick).unwrap();
        assert_eq!(bundle.data.traces.len(), bundle.workloads.train.len());
        for (i, t) in bundle.data.traces.iter().enumerate() {
            assert_eq!(t.cycles as f64, bundle.data.y[i]);
        }
        assert_eq!(bundle.test_traces.len(), bundle.workloads.test.len());
    }
}
