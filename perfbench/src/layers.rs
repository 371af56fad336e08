//! Per-layer metrics, timed from outside the program.
//!
//! Every value here is measured by this benchmark around a call into a
//! public function of one crate (`accel`, `rtl`, `predvfs`, `opt`,
//! `sim`, `serve`, `shard`), or read from a count the crate already
//! keeps. A traced run reports every layer metric; a layer its workload
//! does not pass through reads 0.

use std::sync::Arc;
use std::time::Instant;

use predvfs::{train, SlicePredictor};
use predvfs_accel::Benchmark;
use predvfs_obs::Recorder;
use predvfs_rtl::{AnySim, ExecMode, JobInput};
use predvfs_sim::{Experiment, ExperimentConfig, TraceCache};

use crate::{secs, BoxError};

/// Every per-layer metric with its unit, in output order.
const SPEC: &[(&str, &str)] = &[
    ("accel.workloads_s", "s"),
    ("rtl.compile_s", "s"),
    ("core.profile_s", "s"),
    ("rtl.test_sim_s", "s"),
    ("rtl.sim_mcycles_per_s", "Mcycles/s"),
    ("sim.trace_cache_hits", "count"),
    ("sim.trace_cache_misses", "count"),
    ("opt.fit_s", "s"),
    ("opt.fits", "count"),
    ("opt.fit_iterations", "count"),
    ("opt.fit_nonconverged", "count"),
    ("core.slice_build_s", "s"),
    ("sim.prepare_s", "s"),
    ("sim.scheme.baseline_s", "s"),
    ("sim.scheme.table_s", "s"),
    ("sim.scheme.pid_s", "s"),
    ("sim.scheme.prediction_s", "s"),
    ("sim.scheme.prediction-no-ovh_s", "s"),
    ("sim.scheme.prediction-boost_s", "s"),
    ("sim.scheme.oracle_s", "s"),
    ("core.slice_run_s", "s"),
    ("core.slice_runs", "count"),
    ("core.slice_us_per_run", "us"),
    ("sim.slice_share_pct", "%"),
    ("serve.prepare_s", "s"),
    ("serve.run_s", "s"),
    ("serve.events", "count"),
    ("serve.ns_per_event", "ns"),
    ("serve.refits", "count"),
    ("serve.cached_run_s", "s"),
    ("serve.warm_tables_s", "s"),
    ("shard.run_s", "s"),
    ("shard.run_ckpt_s", "s"),
    ("shard.ckpt_overhead_pct", "%"),
    ("shard.epochs", "count"),
    ("shard.events", "count"),
    ("shard.ns_per_event", "ns"),
    ("shard.migrations", "count"),
    ("shard.checkpoints", "count"),
    ("shard.single_run_s", "s"),
    ("shard.partition_speedup", "x"),
    ("shard.ckpt_capture_ms", "ms"),
    ("shard.ckpt_render_ms", "ms"),
    ("shard.ckpt_digest_ms", "ms"),
    ("shard.ckpt_bytes", "B"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_scale", "x"),
];

/// The per-layer values of one traced run.
pub struct Layers {
    values: Vec<f64>,
    /// The traced counterpart of the workload's `run_s`, against which
    /// the tracing overhead is priced.
    pub traced_run_s: f64,
}

impl Default for Layers {
    /// All layers at 0.
    fn default() -> Layers {
        Layers {
            values: vec![0.0; SPEC.len()],
            traced_run_s: f64::NAN,
        }
    }
}

impl Layers {
    fn slot(name: &str) -> usize {
        SPEC.iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a declared layer metric"))
    }

    /// Sets a layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Self::slot(name)] = value;
    }

    /// Adds to a layer metric.
    pub fn add(&mut self, name: &str, value: f64) {
        self.values[Self::slot(name)] += value;
    }

    /// Every layer metric as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        SPEC.iter()
            .zip(&self.values)
            .map(|(&(name, unit), &v)| (name, v, unit))
            .collect()
    }

    /// Fills the slice-run metrics from the total time and count.
    pub fn set_slice_runs(&mut self, total_s: f64, runs: usize) {
        self.set("core.slice_run_s", total_s);
        self.set("core.slice_runs", runs as f64);
        self.set("core.slice_us_per_run", 1e6 * total_s / runs.max(1) as f64);
    }
}

/// Installs the process-wide recorder so the solver's existing
/// `predvfs_fista_*` counters are kept. Only traced runs call this; the
/// untraced samples run before it with every sink off.
pub fn install_recorder() {
    predvfs_obs::install(Arc::new(Recorder::new(1024)));
}

/// The current value of one of the recorder's counters (0 without one).
fn counter(name: &str) -> u64 {
    predvfs_obs::recorder().map_or(0, |r| r.registry().counter(name).get())
}

/// One experiment class of a workload: a benchmark with its config.
pub type Class = (Benchmark, ExperimentConfig);

/// Times the layers `Experiment::prepare_cached` passes through on a
/// cold cache, one public call at a time, for every class: module build
/// and workload generation, VM compile, training profile, test-set trace
/// simulation, FISTA fit, and slice generation.
pub fn time_setup(classes: &[Class], layers: &mut Layers) -> Result<(), BoxError> {
    let (mut cycles, mut sim_s) = (0u64, 0.0);
    for (bench, config) in classes {
        let t = Instant::now();
        let module = (bench.build)();
        let workloads = (bench.workloads)(config.seed, config.size);
        layers.add("accel.workloads_s", secs(t));

        let t = Instant::now();
        let sim = AnySim::new(&module)?;
        layers.add("rtl.compile_s", secs(t));

        let t = Instant::now();
        let data = train::profile(&module, &workloads.train)?;
        layers.add("core.profile_s", secs(t));

        let t = Instant::now();
        let traces = predvfs_par::par_try_map(&workloads.test, |job| {
            sim.run(job, ExecMode::FastForward, None)
        })?;
        sim_s += secs(t);
        cycles += traces.iter().map(|t| t.cycles).sum::<u64>();

        let fits = counter("predvfs_fista_fits_total");
        let iterations = counter("predvfs_fista_iterations_total");
        let nonconverged = counter("predvfs_fista_nonconverged_total");
        let t = Instant::now();
        let model = train::fit(&data, &config.trainer)?;
        layers.add("opt.fit_s", secs(t));
        layers.add(
            "opt.fits",
            (counter("predvfs_fista_fits_total") - fits) as f64,
        );
        layers.add(
            "opt.fit_iterations",
            (counter("predvfs_fista_iterations_total") - iterations) as f64,
        );
        layers.add(
            "opt.fit_nonconverged",
            (counter("predvfs_fista_nonconverged_total") - nonconverged) as f64,
        );

        let t = Instant::now();
        let predictor =
            SlicePredictor::generate(&module, &model, config.slice_options, config.flavor)?;
        layers.add("core.slice_build_s", secs(t));
        std::hint::black_box(predictor);
    }
    layers.set("rtl.test_sim_s", sim_s);
    layers.set("rtl.sim_mcycles_per_s", cycles as f64 / sim_s / 1e6);
    Ok(())
}

/// Times `Experiment::prepare_cached` for every class on `cache`, which
/// an earlier cold pass filled, and reads the cache's hit and miss
/// counts afterwards.
pub fn time_warm_prepare(
    classes: &[Class],
    cache: &TraceCache,
    layers: &mut Layers,
) -> Result<Vec<Experiment>, BoxError> {
    let t = Instant::now();
    let exps = classes
        .iter()
        .map(|(bench, config)| Experiment::prepare_cached(*bench, config.clone(), cache))
        .collect::<Result<Vec<_>, _>>()?;
    layers.set("sim.prepare_s", secs(t));
    layers.set("sim.trace_cache_hits", cache.hits() as f64);
    layers.set("sim.trace_cache_misses", cache.misses() as f64);
    Ok(exps)
}

/// Runs the slice of `predictor` over `jobs` on one thread and returns
/// the wall seconds and the run count.
pub fn time_slice<'a>(
    predictor: &SlicePredictor,
    jobs: impl IntoIterator<Item = &'a JobInput>,
) -> Result<(f64, usize), BoxError> {
    let runner = predictor.runner();
    let mut runs = 0usize;
    let t = Instant::now();
    for job in jobs {
        std::hint::black_box(runner.run(job)?);
        runs += 1;
    }
    Ok((secs(t), runs))
}
