//! Shared preparation cache: each layer of an experiment's preparation
//! built once per key.
//!
//! Preparing an [`Experiment`](crate::Experiment) passes through five
//! layers, and each depends on fewer knobs than the experiment has. The
//! model predicts cycles from the design's features, and frequency enters
//! only afterwards (`T = C/f`), so neither the platform, nor the
//! switching model, nor the deadline reaches any of them:
//!
//! | layer | key | holds |
//! |---|---|---|
//! | design | benchmark | module, analysis, compiled VM |
//! | traces | (benchmark, seed, size) | workloads, training profile, the test traces simulated so far |
//! | fit | traces key + trainer config | the model |
//! | slice | benchmark + selected non-bias columns + slice options + flavor | the compiled slice with its probes bound |
//! | slice table | slice key + traces key | the slice's runs over the whole test set |
//!
//! The fit key holds no flavor, so an HLS-sliced configuration reuses
//! the RTL one's model; fits that select the same columns share a slice.
//! [`TraceCache`] keeps one memo per layer. `repro` holds one cache for
//! all its exhibits, and serve's `ServeRuntime::prepare` takes one, so
//! configurations that differ only in platform, switching model, deadline
//! or flavor build each shared layer once.
//!
//! **Test traces grow on demand.** A caller asks the traces layer for the
//! first `n` test traces ([`TraceCache::traces`]); a later caller that
//! asks for more extends the bundle under its slot's lock, so no caller
//! gets fewer than it asked for. [`TraceCache::get_or_simulate`] and
//! [`Experiment::prepare_cached`](crate::Experiment::prepare_cached) ask
//! for every test trace; serve asks only for the test jobs its streams
//! submit.
//!
//! Bundles also carry the training-set traces that `train::profile_on`
//! already computed, so leakage calibration reads them instead of
//! re-simulating the first 20 training jobs. Probes are timing-neutral,
//! making the reuse bit-identical to a fresh unprobed run.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use predvfs::train::{self, TrainingData};
use predvfs::{CoreError, ExecTimeModel, SliceFlavor, SlicePredictor, SliceTable, TrainerConfig};
use predvfs_accel::{Benchmark, WorkloadSize, Workloads};
use predvfs_rtl::{
    Analysis, CompiledSim, ExecMode, JobInput, JobTrace, Module, RtlError, SliceOptions,
};

/// One benchmark's design, analysed and compiled once for every trace
/// pass and every slice of it.
#[derive(Debug)]
pub struct Design {
    /// The benchmark the design was built from.
    pub bench: Benchmark,
    /// The accelerator module.
    pub module: Module,
    /// The module's analysis, which the probes and the schema derive from.
    pub analysis: Analysis,
    /// The module compiled for the VM under `analysis`.
    pub sim: CompiledSim,
}

impl Design {
    /// Builds, analyses and compiles `bench`'s module.
    fn build(bench: &Benchmark) -> Result<Design, CoreError> {
        let module = (bench.build)();
        let analysis = Analysis::run(&module);
        let sim = CompiledSim::with_analysis(&module, &analysis)?;
        Ok(Design {
            bench: *bench,
            module,
            analysis,
            sim,
        })
    }
}

/// A traces-layer key: `(benchmark name, seed, size)`.
type TracesKey = (&'static str, u64, WorkloadSize);

/// Everything about one `(benchmark, seed, size)` that requires trace
/// simulation: the generated workloads, the profiled training data
/// (including per-job traces), and the nominal-frequency traces of the
/// first test jobs.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// The generated train/test job sets, shared with every experiment
    /// prepared from the bundle.
    pub workloads: Arc<Workloads>,
    /// Profiled training data; `data.traces` holds the per-job traces.
    pub data: Arc<TrainingData>,
    /// Traces of test jobs `0..test_traces.len()` at nominal frequency
    /// (unprobed), shared with every experiment prepared from the bundle:
    /// at least as many as the lookup asked for, or the whole test set.
    pub test_traces: Arc<Vec<JobTrace>>,
    key: TracesKey,
}

impl TraceBundle {
    /// Generates `design`'s workloads for `(seed, size)`, profiles the
    /// training set and simulates the first `tests` test jobs, on the
    /// design's one compiled VM.
    ///
    /// Both job sets are fanned out in parallel with input-order
    /// collection, so the bundle is bit-identical to a serial pass.
    fn simulate(
        design: &Design,
        seed: u64,
        size: WorkloadSize,
        tests: usize,
    ) -> Result<TraceBundle, CoreError> {
        let workloads = (design.bench.workloads)(seed, size);
        let data = train::profile_on(
            &design.sim,
            &design.module,
            &design.analysis,
            &workloads.train,
        )?;
        TraceBundle {
            workloads: Arc::new(workloads),
            data: Arc::new(data),
            test_traces: Arc::default(),
            key: (design.bench.name, seed, size),
        }
        .extended(design, tests)
    }

    /// Whether the bundle holds the first `tests` test traces, or all of
    /// them.
    fn covers(&self, tests: usize) -> bool {
        self.test_traces.len() >= tests.min(self.workloads.test.len())
    }

    /// The bundle with its test traces extended to the first `tests` test
    /// jobs, capped at the test set. The traces it already holds are
    /// kept, not simulated again.
    fn extended(self, design: &Design, tests: usize) -> Result<TraceBundle, CoreError> {
        let want = tests.min(self.workloads.test.len());
        let have = self.test_traces.len();
        if want <= have {
            return Ok(self);
        }
        let more = predvfs_par::par_try_map(&self.workloads.test[have..want], |job| {
            design.sim.run(job, ExecMode::FastForward, None)
        })?;
        let mut traces = Vec::with_capacity(want);
        traces.extend_from_slice(&self.test_traces);
        traces.extend(more);
        Ok(TraceBundle {
            test_traces: Arc::new(traces),
            ..self
        })
    }
}

/// A fit-layer key: the traces key and the trainer configuration, its
/// floats by bit pattern.
type FitKey = (TracesKey, (u64, u64, bool, usize));

fn fit_key(bundle: &TraceBundle, t: &TrainerConfig) -> FitKey {
    let trainer = (t.alpha.to_bits(), t.gamma.to_bits(), t.refit, t.max_iter);
    (bundle.key, trainer)
}

/// A slice-layer key: the benchmark, the model's selected non-bias
/// columns, the slice options and the flavor, its floats by bit pattern
/// (`None` for RTL). The model's schema is the design's, so the columns
/// name the same features in every fit of the benchmark.
type SliceKey = (&'static str, Vec<usize>, bool, Option<(u64, u64)>);

fn slice_key(
    bench: &'static str,
    model: &ExecTimeModel,
    options: SliceOptions,
    flavor: SliceFlavor,
) -> SliceKey {
    let flavor = match flavor {
        SliceFlavor::Rtl => None,
        SliceFlavor::Hls {
            serial_speedup,
            area_factor,
        } => Some((serial_speedup.to_bits(), area_factor.to_bits())),
    };
    (
        bench,
        model.selected_nonbias(),
        options.rewrite_waits,
        flavor,
    )
}

/// A slice-table layer entry: the slice's runs over a test set, built by
/// its first reader.
#[derive(Debug, Default)]
pub struct TableCell(OnceLock<Result<SliceTable, RtlError>>);

impl TableCell {
    /// The runs of `slice` over `jobs`: entry `i` is job `i`'s run. The
    /// first caller builds the table (concurrent first callers wait for
    /// that one build), and every later caller reads it. `slice` and
    /// `jobs` must be the slice and the test set the cell was looked up
    /// for ([`TraceCache::slice_table`]).
    ///
    /// # Errors
    ///
    /// Returns the slice failure of the lowest-indexed job, on every call.
    pub fn get_or_run(
        &self,
        slice: &SlicePredictor,
        jobs: &[JobInput],
    ) -> Result<&SliceTable, CoreError> {
        self.0
            .get_or_init(|| {
                let _span = predvfs_obs::span("sim.slice_table");
                slice.run_all(jobs)
            })
            .as_ref()
            .map_err(|e| e.clone().into())
    }

    /// Whether a reader has built the table.
    pub fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

/// Locks `m`, recovering from poisoning.
///
/// A memo's map is insert-only and a slot is written only with a value
/// that was completely built (values are immutable `Arc`s), so a guard
/// abandoned by a panicking worker still protects a consistent snapshot:
/// a slot whose build panicked simply keeps its previous value. Recovering
/// here keeps one panicked closure in a parallel fan-out from cascading
/// poison panics into every other worker's lookups.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-safe memo with one slot per key. The caller that finds a slot
/// empty builds its value while holding the slot's lock, so concurrent
/// callers of the same key wait for that build instead of starting their
/// own. The map's lock is not held during a build, so lookups of other
/// keys proceed.
struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<Mutex<Option<V>>>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo {
            slots: Mutex::default(),
        }
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// Runs `f` on `key`'s slot while holding the slot's lock.
    fn with_slot<R>(&self, key: K, f: impl FnOnce(&mut Option<V>) -> R) -> R {
        let slot = Arc::clone(lock(&self.slots).entry(key).or_default());
        let mut value = lock(&slot);
        f(&mut value)
    }

    /// `key`'s value, built by `build` on first use.
    fn get_or_init(&self, key: K, build: impl FnOnce() -> V) -> V {
        self.with_slot(key, |slot| slot.get_or_insert_with(build).clone())
    }

    /// `key`'s value, built by `build` on first use. A failed build is not
    /// cached, so the next caller of the key builds again.
    fn get_or_try_init<E>(&self, key: K, build: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        self.with_slot(key, |slot| {
            if let Some(value) = slot {
                return Ok(value.clone());
            }
            let value = build()?;
            *slot = Some(value.clone());
            Ok(value)
        })
    }

    /// The filled slots' values. Waits for any build in flight.
    fn values(&self) -> Vec<V> {
        let slots: Vec<_> = lock(&self.slots).values().cloned().collect();
        slots.iter().filter_map(|slot| lock(slot).clone()).collect()
    }
}

/// How many values each layer of a [`TraceCache`] holds. The memo builds
/// each value once, so these are also the builds the cache has made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Designs analysed and compiled.
    pub designs: usize,
    /// Trace bundles: one trace pass each.
    pub bundles: usize,
    /// Models fitted.
    pub fits: usize,
    /// Slices generated and compiled.
    pub slices: usize,
    /// Slice tables run over their test sets.
    pub slice_tables: usize,
}

/// The memoized preparation layers, keyed as the module docs describe.
#[derive(Default)]
pub struct TraceCache {
    designs: Memo<&'static str, Arc<Design>>,
    bundles: Memo<TracesKey, Arc<TraceBundle>>,
    fits: Memo<FitKey, Arc<ExecTimeModel>>,
    slices: Memo<SliceKey, Arc<SlicePredictor>>,
    tables: Memo<(SliceKey, TracesKey), Arc<TableCell>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// `bench`'s design, built, analysed and compiled on first use.
    ///
    /// # Errors
    ///
    /// Propagates compile failures; they are not cached.
    pub fn design(&self, bench: &Benchmark) -> Result<Arc<Design>, CoreError> {
        self.designs
            .get_or_try_init(bench.name, || Design::build(bench).map(Arc::new))
    }

    /// The bundle for `(bench.name, seed, size)` with every test trace,
    /// simulating what the cache does not hold yet.
    ///
    /// # Errors
    ///
    /// As for [`TraceCache::traces`].
    pub fn get_or_simulate(
        &self,
        bench: &Benchmark,
        seed: u64,
        size: WorkloadSize,
    ) -> Result<Arc<TraceBundle>, CoreError> {
        self.traces(bench, seed, size, usize::MAX)
    }

    /// The bundle for `(bench.name, seed, size)` holding at least the
    /// traces of test jobs `0..tests` (all of them, if the test set is
    /// smaller).
    ///
    /// Each key gets one trace pass: a caller that arrives while another
    /// caller's pass for the same key runs waits for it and counts a hit.
    /// A hit on a bundle with fewer test traces simulates the missing
    /// ones under the slot's lock and stores the extended bundle; bundles
    /// returned earlier keep the traces they had. Lookups of other keys
    /// proceed meanwhile.
    ///
    /// # Errors
    ///
    /// Propagates compile, profiling and simulation failures; they are
    /// not cached, so the next caller of the key runs the pass again.
    pub fn traces(
        &self,
        bench: &Benchmark,
        seed: u64,
        size: WorkloadSize,
        tests: usize,
    ) -> Result<Arc<TraceBundle>, CoreError> {
        let design = self.design(bench)?;
        self.bundles.with_slot((bench.name, seed, size), |slot| {
            let bundle = match slot {
                Some(bundle) if bundle.covers(tests) => {
                    let _span = predvfs_obs::span("cache.hit");
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(bundle));
                }
                Some(bundle) => {
                    // Should the extension fail, the slot keeps the
                    // shorter bundle.
                    let _span = predvfs_obs::span("cache.extend");
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    TraceBundle::clone(bundle).extended(&design, tests)?
                }
                None => {
                    // The miss span prices the whole simulate-and-insert
                    // path, so a hit/miss flame split shows where
                    // preparation time actually goes.
                    let _span = predvfs_obs::span("cache.miss");
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    TraceBundle::simulate(&design, seed, size, tests)?
                }
            };
            let bundle = Arc::new(bundle);
            *slot = Some(Arc::clone(&bundle));
            Ok(bundle)
        })
    }

    /// The model fitted on `bundle`'s training profile under `trainer`,
    /// fitted on first use.
    ///
    /// # Errors
    ///
    /// Propagates fit failures; they are not cached.
    pub fn fit(
        &self,
        bundle: &TraceBundle,
        trainer: &TrainerConfig,
    ) -> Result<Arc<ExecTimeModel>, CoreError> {
        self.fits.get_or_try_init(fit_key(bundle, trainer), || {
            train::fit(&bundle.data, trainer).map(Arc::new)
        })
    }

    /// `design` sliced down to `model`'s selected features, generated and
    /// compiled on first use. Models of one design that select the same
    /// columns share the slice.
    ///
    /// # Errors
    ///
    /// Propagates slicing and slice-compilation failures; they are not
    /// cached.
    pub fn slice(
        &self,
        design: &Design,
        model: &ExecTimeModel,
        options: SliceOptions,
        flavor: SliceFlavor,
    ) -> Result<Arc<SlicePredictor>, CoreError> {
        let key = slice_key(design.bench.name, model, options, flavor);
        self.slices.get_or_try_init(key, || {
            SlicePredictor::generate(&design.module, model, options, flavor).map(Arc::new)
        })
    }

    /// The cell of the table of the slice that [`TraceCache::slice`]
    /// returns for `(model, options, flavor)` over `bundle`'s test set.
    /// The cell is empty until its first reader builds the table with
    /// [`TableCell::get_or_run`].
    pub fn slice_table(
        &self,
        bundle: &TraceBundle,
        model: &ExecTimeModel,
        options: SliceOptions,
        flavor: SliceFlavor,
    ) -> Arc<TableCell> {
        let key = (slice_key(bundle.key.0, model, options, flavor), bundle.key);
        self.tables.get_or_init(key, Arc::default)
    }

    /// Number of cached bundles. Waits for any trace pass in flight.
    pub fn len(&self) -> usize {
        self.bundles.values().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trace-bundle lookups served from the cache, extensions included.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Trace-bundle lookups that required a trace pass.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// How many values each layer holds. Waits for any build in flight.
    pub fn counts(&self) -> LayerCounts {
        LayerCounts {
            designs: self.designs.values().len(),
            bundles: self.len(),
            fits: self.fits.values().len(),
            slices: self.slices.values().len(),
            slice_tables: self
                .tables
                .values()
                .iter()
                .filter(|cell| cell.is_built())
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_accel::by_name;

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_bundle() {
        let bench = by_name("sha").unwrap();
        let cache = TraceCache::new();
        let a = cache
            .get_or_simulate(&bench, 42, WorkloadSize::Quick)
            .unwrap();
        let b = cache
            .get_or_simulate(&bench, 42, WorkloadSize::Quick)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_first_lookups_share_one_pass() {
        let bench = by_name("sha").unwrap();
        let cache = TraceCache::new();
        let start = std::sync::Barrier::new(2);
        let lookup = || {
            start.wait();
            cache
                .get_or_simulate(&bench, 42, WorkloadSize::Quick)
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
        assert_eq!(cache.counts().designs, 1, "one compile for both lookups");
    }

    #[test]
    fn distinct_seeds_get_distinct_bundles() {
        let bench = by_name("sha").unwrap();
        let cache = TraceCache::new();
        let a = cache
            .get_or_simulate(&bench, 1, WorkloadSize::Quick)
            .unwrap();
        let b = cache
            .get_or_simulate(&bench, 2, WorkloadSize::Quick)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let bench = by_name("sha").unwrap();
        let cache = TraceCache::new();
        cache
            .get_or_simulate(&bench, 42, WorkloadSize::Quick)
            .unwrap();
        // Poison the memo mutex the way a dying fan-out worker would: by
        // panicking while holding the guard. Before the recovery fix this
        // turned every later lookup into a "cache poisoned" panic.
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.bundles.slots.lock().unwrap();
                panic!("worker dies while holding the cache lock");
            })
            .join()
        });
        assert!(worker.is_err(), "the worker must have panicked");
        assert!(cache.bundles.slots.is_poisoned());
        // Subsequent lookups see the intact insert-only snapshot.
        assert_eq!(cache.len(), 1);
        let again = cache
            .get_or_simulate(&bench, 42, WorkloadSize::Quick)
            .expect("lookup after poisoning must succeed");
        assert_eq!(again.workloads.test.len(), again.test_traces.len());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn bundle_traces_match_training_rows() {
        let bench = by_name("aes").unwrap();
        let design = Design::build(&bench).unwrap();
        let bundle = TraceBundle::simulate(&design, 42, WorkloadSize::Quick, usize::MAX).unwrap();
        assert_eq!(bundle.data.traces.len(), bundle.workloads.train.len());
        for (i, t) in bundle.data.traces.iter().enumerate() {
            assert_eq!(t.cycles as f64, bundle.data.y[i]);
        }
        assert_eq!(bundle.test_traces.len(), bundle.workloads.test.len());
    }

    /// A bounded lookup simulates only the test jobs it asks for; a later
    /// lookup that asks for more extends the bundle, reusing the training
    /// profile and the traces already simulated, and ends equal to a
    /// full pass on a fresh cache.
    #[test]
    fn bounded_lookups_extend_the_bundle_on_demand() {
        let bench = by_name("h264").unwrap();
        let cache = TraceCache::new();
        let short = cache.traces(&bench, 42, WorkloadSize::Quick, 5).unwrap();
        assert_eq!(short.test_traces.len(), 5);
        assert!(short.workloads.test.len() > 5);
        let again = cache.traces(&bench, 42, WorkloadSize::Quick, 3).unwrap();
        assert!(Arc::ptr_eq(&short, &again), "a covered lookup shares");
        let full = cache
            .get_or_simulate(&bench, 42, WorkloadSize::Quick)
            .unwrap();
        assert_eq!(
            short.test_traces.len(),
            5,
            "a returned bundle keeps its traces"
        );
        assert!(Arc::ptr_eq(&short.data, &full.data));
        assert!(Arc::ptr_eq(&short.workloads, &full.workloads));
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        let fresh = TraceCache::new()
            .get_or_simulate(&bench, 42, WorkloadSize::Quick)
            .unwrap();
        assert_eq!(full.test_traces, fresh.test_traces);
    }
}
