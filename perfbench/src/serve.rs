//! The two serve workloads.
//!
//! `serve_live` is what `predvfs serve` runs without `--shards`: each
//! benchmark under the predictive, adaptive, hybrid and PID controllers,
//! quick-size workloads, jobs arriving open-loop in virtual time at the
//! paper period, through the single-engine `ServeRuntime::run`. Every
//! benchmark × controller pair is served by [`LIVE_REPLICAS`] streams,
//! each on its own workload seed derived from the run's seed: a quick
//! test set holds as few as 10 jobs, so one seed per benchmark would make
//! the run's cost a draw of 10 job sizes rather than a property of the
//! program.
//!
//! `serve_scale` is `synth_scenario` at 2^18 streams × 10 jobs through
//! `run_sharded` on 2 shards: forced `Cached` controllers, lean records,
//! and a checkpoint every 2 epochs. For the same reason it spreads the
//! streams over [`SCALE_CLASSES`] classes, 8 seeds per benchmark.

use std::collections::HashMap;
use std::time::Instant;

use predvfs_faults::NullInjector;
use predvfs_obs::NullSink;
use predvfs_power::OperatingPoint;
use predvfs_serve::{
    ControllerKind, EngineConfig, Scenario, ServeRuntime, StreamResult, StreamSpec,
};
use predvfs_shard::{run_sharded, synth_scenario, ShardConfig, SynthSpec};
use predvfs_sim::{Experiment, ExperimentConfig, TraceCache};

use crate::layers::{self, Class};
use crate::{median, secs, BoxError, Layers, Sample, SimFigures, THREADS};

/// Streams, each on its own workload seed, per `serve_live` benchmark
/// and controller.
const LIVE_REPLICAS: u64 = 30;

/// Jobs each `serve_live` stream submits (8400 jobs in all): one pass
/// over a quick test set of 10 jobs.
const LIVE_JOBS: usize = 10;

/// Controllers of the `serve_live` streams, one stream each per benchmark.
const LIVE_CONTROLLERS: [ControllerKind; 4] = [
    ControllerKind::Predictive,
    ControllerKind::Adaptive,
    ControllerKind::Hybrid,
    ControllerKind::Pid,
];

/// Streams of the `serve_scale` scenario.
const SCALE_STREAMS: usize = 1 << 18;

/// Stream classes of the `serve_scale` scenario: 8 per benchmark.
const SCALE_CLASSES: usize = 56;

/// Checkpoint cadence of the `serve_scale` run, in epochs.
const SCALE_CHECKPOINT_EVERY: u64 = 2;

/// Repetitions of each checkpoint step in the traced run.
const CHECKPOINT_REPS: usize = 5;

/// Failure lines kept per sample; the counts stay exact past it.
const MAX_FAILURE_LINES: usize = 8;

/// Workload seed of replica `r` of a run on `seed` (SplitMix64 of both).
fn derive_seed(seed: u64, r: u64) -> u64 {
    let mut z = seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The distinct training problems of a scenario, in first-use order,
/// configured as `ServeRuntime::prepare` configures them, and the class
/// of every stream.
fn classes_of(scenario: &Scenario) -> (Vec<Class>, Vec<usize>) {
    let mut classes: Vec<Class> = Vec::new();
    let mut index: HashMap<(&str, u64, u64), usize> = HashMap::new();
    let mut class_of = Vec::with_capacity(scenario.streams.len());
    for spec in &scenario.streams {
        let key = (spec.bench.name, spec.seed, spec.deadline_s.to_bits());
        let i = *index.entry(key).or_insert_with(|| {
            let mut config = ExperimentConfig::paper_default(scenario.platform);
            config.size = scenario.size;
            config.seed = spec.seed;
            config.deadline_s = spec.deadline_s;
            classes.push((spec.bench, config));
            classes.len() - 1
        });
        class_of.push(i);
    }
    (classes, class_of)
}

/// Energy of every test job of every class at nominal V/f with no slice
/// and no switching: what the Baseline scheme would spend. Serve energy
/// is normalised against it.
struct Reference {
    nominal_pj: Vec<Vec<f64>>,
}

impl Reference {
    /// Builds the reference from `cache`, which the sample's set-up
    /// already filled.
    fn new(classes: &[Class], cache: &TraceCache) -> Result<Reference, BoxError> {
        let nominal = OperatingPoint {
            volts: 1.0,
            freq_ratio: 1.0,
        };
        let mut nominal_pj = Vec::with_capacity(classes.len());
        for (bench, config) in classes {
            let exp = Experiment::prepare_cached(*bench, config.clone(), cache)?;
            nominal_pj.push(
                exp.test_traces
                    .iter()
                    .map(|t| exp.energy.job_pj(t.cycles, &t.dp_active, nominal, 1.0))
                    .collect(),
            );
        }
        Ok(Reference { nominal_pj })
    }

    /// Nominal energy of the jobs `stream` completed. Arrival `j` of a
    /// stream serves test job `j mod n`; with per-job records the sum is
    /// exact, and in lean mode it is the submitted jobs' energy scaled by
    /// the completed share (exact when nothing was shed).
    fn stream_pj(&self, class: usize, spec: &StreamSpec, stream: &StreamResult) -> f64 {
        let jobs = &self.nominal_pj[class];
        let of = |j: usize| jobs[j % jobs.len()];
        if stream.records.len() == stream.done {
            stream.records.iter().map(|r| of(r.job)).sum()
        } else {
            let submitted: f64 = (0..spec.jobs).map(of).sum();
            submitted * stream.done as f64 / spec.jobs.max(1) as f64
        }
    }
}

/// Counts every submitted job as attempted, checks each stream's
/// outputs, and computes the simulated figures.
///
/// A stream fails its check when completed plus shed jobs differ from
/// the submitted ones or an energy is not finite; all of its jobs then
/// count as failed, as do jobs the engine contained as internal errors.
fn score(
    s: &mut Sample,
    streams: &[StreamResult],
    specs: &[StreamSpec],
    class_of: &[usize],
    reference: &Reference,
    events: usize,
) {
    let expected: u64 = specs.iter().map(|spec| spec.jobs as u64).sum();
    s.attempted += expected;
    if streams.len() != specs.len() {
        s.failed += expected;
        s.failures.push(format!(
            "{} streams returned for {} submitted",
            streams.len(),
            specs.len()
        ));
        return;
    }
    let (mut done, mut missed, mut shed, mut errors, mut submitted) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut energy_pj, mut nominal_pj) = (0.0, 0.0);
    for ((stream, spec), &class) in streams.iter().zip(specs).zip(class_of) {
        submitted += stream.submitted as u64;
        let balanced =
            stream.done + stream.shed == stream.submitted && stream.submitted == spec.jobs;
        let finite =
            stream.energy_pj.is_finite() && stream.records.iter().all(|r| r.energy_pj.is_finite());
        let bad = if balanced && finite {
            stream.internal_errors.min(spec.jobs)
        } else {
            spec.jobs
        };
        if bad > 0 {
            s.failed += bad as u64;
            if s.failures.len() < MAX_FAILURE_LINES {
                s.failures.push(format!(
                    "stream {}: submitted {} done {} shed {} internal errors {} energy {}",
                    stream.name,
                    stream.submitted,
                    stream.done,
                    stream.shed,
                    stream.internal_errors,
                    stream.energy_pj
                ));
            }
        }
        done += stream.done as u64;
        missed += stream.missed as u64;
        shed += stream.shed as u64;
        errors += stream.internal_errors as u64;
        energy_pj += stream.energy_pj;
        nominal_pj += reference.stream_pj(class, spec, stream);
    }
    s.jobs = done;
    s.sim = SimFigures {
        energy_norm_pct: 100.0 * energy_pj / nominal_pj,
        energy_uj_per_job: energy_pj / done.max(1) as f64 * 1e-6,
        slo_met_pct: 100.0 * done.saturating_sub(missed) as f64 / submitted.max(1) as f64,
        slo_failures: missed + shed + errors,
        events: events as u64,
    };
}

/// A sample whose run returned an error: every submitted job failed.
fn errored(s: &mut Sample, specs: &[StreamSpec], e: &dyn std::error::Error) {
    let expected: u64 = specs.iter().map(|spec| spec.jobs as u64).sum();
    s.attempted += expected;
    s.failed += expected;
    s.failures.push(format!("run returned an error: {e}"));
}

/// The `serve_live` workload for one seed.
pub struct ServeLive {
    scenario: Scenario,
    classes: Vec<Class>,
    class_of: Vec<usize>,
    reference: Option<Reference>,
}

impl ServeLive {
    /// The workload's inputs for `seed`.
    pub fn new(seed: u64) -> ServeLive {
        let mut streams = Vec::new();
        for bench in predvfs_accel::all() {
            for replica in 0..LIVE_REPLICAS {
                for kind in LIVE_CONTROLLERS {
                    let mut spec = StreamSpec::new(bench);
                    spec.name = format!("{}-{}-{replica}", bench.name, kind.name());
                    spec.controller = kind;
                    spec.jobs = LIVE_JOBS;
                    spec.seed = derive_seed(seed, replica);
                    streams.push(spec);
                }
            }
        }
        let scenario = Scenario {
            platform: predvfs_sim::Platform::Asic,
            size: predvfs_accel::WorkloadSize::Quick,
            streams,
            faults: None,
        };
        let (classes, class_of) = classes_of(&scenario);
        ServeLive {
            scenario,
            classes,
            class_of,
            reference: None,
        }
    }

    /// One set-up and one single-engine run.
    pub fn sample(&mut self) -> Result<Sample, BoxError> {
        let cache = TraceCache::new();
        let t = Instant::now();
        let runtime = ServeRuntime::prepare(&self.scenario, &cache)?;
        let setup_s = secs(t);
        let t = Instant::now();
        let result = runtime.run();
        let run_s = secs(t);
        if self.reference.is_none() {
            self.reference = Some(Reference::new(&self.classes, &cache)?);
        }
        let reference = self.reference.as_ref().expect("reference built above");
        let mut s = Sample::new(setup_s, run_s);
        match result {
            Ok(r) => score(
                &mut s,
                &r.streams,
                &self.scenario.streams,
                &self.class_of,
                reference,
                r.events,
            ),
            Err(e) => errored(&mut s, &self.scenario.streams, &e),
        }
        Ok(s)
    }

    /// The traced run: set-up layers, the serve prepare and run, the
    /// live slice work priced on its own, and the same runtime forced to
    /// cached decisions.
    pub fn trace(&mut self, layers: &mut Layers) -> Result<(), BoxError> {
        layers::install_recorder();
        layers::time_setup(&self.classes, layers)?;
        let cache = TraceCache::new();
        let t = Instant::now();
        let runtime = ServeRuntime::prepare(&self.scenario, &cache)?;
        layers.set("serve.prepare_s", secs(t));
        let exps = layers::time_warm_prepare(&self.classes, &cache, layers)?;

        let t = Instant::now();
        let result = runtime.run()?;
        let run_s = secs(t);
        layers.traced_run_s = run_s;
        layers.set("serve.run_s", run_s);
        layers.set("serve.events", result.events as f64);
        layers.set(
            "serve.ns_per_event",
            run_s * 1e9 / result.events.max(1) as f64,
        );
        let refits: usize = result.streams.iter().map(|s| s.refits).sum();
        layers.set("serve.refits", refits as f64);

        // Every completed job of a slice-driven stream ran its slice live
        // inside the event loop; run the same slices here, alone.
        let (mut slice_s, mut slice_runs) = (0.0, 0);
        for ((spec, stream), &class) in self
            .scenario
            .streams
            .iter()
            .zip(&result.streams)
            .zip(&self.class_of)
        {
            if spec.controller == ControllerKind::Pid {
                continue;
            }
            let test = &exps[class].workloads.test;
            let jobs = stream.records.iter().map(|r| &test[r.job % test.len()]);
            let (dt, n) = layers::time_slice(&exps[class].predictor, jobs)?;
            slice_s += dt;
            slice_runs += n;
        }
        layers.set_slice_runs(slice_s, slice_runs);
        layers.set("sim.slice_share_pct", 100.0 * slice_s / run_s);

        let t = Instant::now();
        runtime.warm_cached_tables(Some(ControllerKind::Cached))?;
        layers.set("serve.warm_tables_s", secs(t));
        let t = Instant::now();
        runtime.run_with(Some(ControllerKind::Cached))?;
        layers.set("serve.cached_run_s", secs(t));
        Ok(())
    }
}

/// The sharded configuration of `serve_scale` at `shards` shards.
fn scale_config(shards: usize, checkpoint_every: Option<u64>) -> ShardConfig {
    ShardConfig {
        shards,
        force: Some(ControllerKind::Cached),
        lean: true,
        checkpoint_every,
        ..ShardConfig::default()
    }
}

/// The `serve_scale` workload for one seed.
pub struct ServeScale {
    scenario: Scenario,
    classes: Vec<Class>,
    class_of: Vec<usize>,
    reference: Option<Reference>,
    /// Jobs done by the same run on one shard, the partition check's
    /// reference; measured once per process.
    single_shard_jobs: Option<u64>,
}

impl ServeScale {
    /// The workload's inputs for `seed`.
    pub fn new(seed: u64) -> ServeScale {
        // Class `c` runs on workload seed `seed + c`.
        let scenario = synth_scenario(&SynthSpec {
            seed,
            classes: SCALE_CLASSES,
            ..SynthSpec::new(SCALE_STREAMS)
        });
        let (classes, class_of) = classes_of(&scenario);
        ServeScale {
            scenario,
            classes,
            class_of,
            reference: None,
            single_shard_jobs: None,
        }
    }

    /// One set-up (prepare plus cached-table warm-up) and one sharded run.
    pub fn sample(&mut self) -> Result<Sample, BoxError> {
        let cache = TraceCache::new();
        let t = Instant::now();
        let runtime = ServeRuntime::prepare(&self.scenario, &cache)?;
        runtime.warm_cached_tables(Some(ControllerKind::Cached))?;
        let setup_s = secs(t);
        let config = scale_config(THREADS, Some(SCALE_CHECKPOINT_EVERY));
        let t = Instant::now();
        let result = run_sharded(&runtime, &config, &[], &NullSink, &NullInjector);
        let run_s = secs(t);
        if self.reference.is_none() {
            self.reference = Some(Reference::new(&self.classes, &cache)?);
        }
        let reference = self.reference.as_ref().expect("reference built above");
        let mut s = Sample::new(setup_s, run_s);
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                errored(&mut s, &self.scenario.streams, &e);
                return Ok(s);
            }
        };
        score(
            &mut s,
            &result.streams,
            &self.scenario.streams,
            &self.class_of,
            reference,
            result.events,
        );
        let completed = s.jobs;
        s.check(result.jobs_done == completed, || {
            format!(
                "jobs_done {} differs from the streams' {completed} completions",
                result.jobs_done
            )
        });
        if self.single_shard_jobs.is_none() {
            let single = run_sharded(
                &runtime,
                &scale_config(1, Some(SCALE_CHECKPOINT_EVERY)),
                &[],
                &NullSink,
                &NullInjector,
            )?;
            self.single_shard_jobs = Some(single.jobs_done);
        }
        let single = self.single_shard_jobs.expect("single-shard run done above");
        s.check(single == result.jobs_done, || {
            format!(
                "jobs_done is {} on 1 shard but {} on {THREADS}",
                single, result.jobs_done
            )
        });
        Ok(s)
    }

    /// The traced run: set-up layers, the table warm-up and its slice
    /// runs, the sharded run with and without checkpoints and on one
    /// shard, and the checkpoint split into capture, render and digest.
    pub fn trace(&mut self, layers: &mut Layers) -> Result<(), BoxError> {
        layers::install_recorder();
        layers::time_setup(&self.classes, layers)?;
        let cache = TraceCache::new();
        let t = Instant::now();
        let runtime = ServeRuntime::prepare(&self.scenario, &cache)?;
        layers.set("serve.prepare_s", secs(t));
        let exps = layers::time_warm_prepare(&self.classes, &cache, layers)?;
        let t = Instant::now();
        runtime.warm_cached_tables(Some(ControllerKind::Cached))?;
        layers.set("serve.warm_tables_s", secs(t));

        // Warming builds one table per class by running its slice once per
        // test job; the sharded run itself executes no slice.
        let (mut slice_s, mut slice_runs) = (0.0, 0);
        for e in &exps {
            let (dt, n) = layers::time_slice(&e.predictor, &e.workloads.test)?;
            slice_s += dt;
            slice_runs += n;
        }
        layers.set_slice_runs(slice_s, slice_runs);

        let run = |shards, every| -> Result<_, BoxError> {
            let t = Instant::now();
            let r = run_sharded(
                &runtime,
                &scale_config(shards, every),
                &[],
                &NullSink,
                &NullInjector,
            )?;
            Ok((secs(t), r))
        };
        let (plain_s, _) = run(THREADS, None)?;
        let (ckpt_s, r) = run(THREADS, Some(SCALE_CHECKPOINT_EVERY))?;
        let (single_s, _) = run(1, Some(SCALE_CHECKPOINT_EVERY))?;
        layers.traced_run_s = ckpt_s;
        layers.set("shard.run_s", plain_s);
        layers.set("shard.run_ckpt_s", ckpt_s);
        layers.set("shard.ckpt_overhead_pct", 100.0 * (ckpt_s / plain_s - 1.0));
        layers.set("shard.epochs", r.epochs as f64);
        layers.set("shard.events", r.events as f64);
        layers.set("shard.ns_per_event", ckpt_s * 1e9 / r.events.max(1) as f64);
        layers.set("shard.migrations", r.migrations as f64);
        layers.set("shard.checkpoints", r.checkpoints as f64);
        layers.set("shard.single_run_s", single_s);
        layers.set("shard.partition_speedup", single_s / ckpt_s);

        // Shard 0 of the sharded run, built as the shard tier builds it and
        // run to the first checkpoint boundary.
        let members: Vec<usize> = (0..self.scenario.streams.len()).step_by(THREADS).collect();
        let config = EngineConfig {
            force: Some(ControllerKind::Cached),
            lean: true,
            defer_escalations: true,
            one_ahead_arrivals: true,
            ..EngineConfig::default()
        };
        let mut engine = runtime.engine(&members, config, &NullSink, &NullInjector)?;
        let epoch_s = ShardConfig::default().epoch_s;
        engine.run_until(SCALE_CHECKPOINT_EVERY as f64 * epoch_s)?;
        let (mut capture, mut render, mut digest) = (Vec::new(), Vec::new(), Vec::new());
        let mut bytes = 0;
        for _ in 0..CHECKPOINT_REPS {
            let t = Instant::now();
            let checkpoint = engine.checkpoint();
            capture.push(secs(t) * 1e3);
            let t = Instant::now();
            bytes = std::hint::black_box(checkpoint.render()).len();
            render.push(secs(t) * 1e3);
            let t = Instant::now();
            std::hint::black_box(checkpoint.digest());
            digest.push(secs(t) * 1e3);
        }
        layers.set("shard.ckpt_capture_ms", median(&capture));
        layers.set("shard.ckpt_render_ms", median(&render));
        layers.set("shard.ckpt_digest_ms", median(&digest));
        layers.set("shard.ckpt_bytes", bytes as f64);
        Ok(())
    }
}
