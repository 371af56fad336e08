//! End-to-end experiment orchestration for one benchmark: build → train →
//! slice → profile → run every DVFS scheme.
//!
//! An [`Experiment`] is shared handles to the preparation layers of a
//! [`TraceCache`] (design, traces, fit, slice and slice table; see the
//! [`cache`](crate::cache) module) plus its platform view: the energy
//! models, the DVFS ladder, the FPGA resources and the deadline. Two
//! experiments that differ only in platform, switching model or deadline
//! share every layer; an HLS-sliced one shares all but the slice and its
//! table.
//!
//! `test_traces` holds the traces of the first test jobs:
//! [`Experiment::prepare_cached`] prepares every one, and every scheme
//! run reads them all; [`Experiment::prepare_reading`] prepares only as
//! many as its caller reads, which is how serve prepares a class.

use std::sync::Arc;

use predvfs::{
    BaselineController, DvfsModel, ExecTimeModel, OracleController, PidController,
    PredictiveController, SliceFlavor, SlicePredictor, SliceTable, TableController, TrainerConfig,
};
use predvfs_accel::{Benchmark, WorkloadSize, Workloads};
use predvfs_power::{
    AlphaPowerCurve, EnergyModel, Ladder, PowerParams, SwitchingModel, TableCurve,
};
use predvfs_rtl::{AsicAreaModel, FpgaResourceModel, FpgaResources, JobTrace, SliceOptions};

use crate::cache::{Design, TableCell, TraceCache};
use crate::metrics::SchemeResult;
use crate::runner::{run_scheme, RunConfig};

/// Target platform (§4.3 vs §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// TSMC-65nm-style ASIC: 6 levels, 1.0 → 0.625 V.
    Asic,
    /// Kintex-7-style FPGA: 7 levels, 1.0 → 0.7 V.
    Fpga,
}

/// The DVFS schemes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Constant nominal V/f.
    Baseline,
    /// Worst-case table indexed by a coarse input class (§2.4).
    Table,
    /// Reactive PID control with a 10 % margin.
    Pid,
    /// The predictive controller (5 % margin, overheads charged).
    Prediction,
    /// Prediction with slice and switching overheads removed (Fig. 13).
    PredictionNoOverhead,
    /// Prediction with the 1.08 V boost level enabled (Fig. 14).
    PredictionBoost,
    /// Per-job omniscient lower bound.
    Oracle,
}

impl Scheme {
    /// Every scheme, in the paper's presentation order.
    pub const ALL: [Scheme; 7] = [
        Scheme::Baseline,
        Scheme::Table,
        Scheme::Pid,
        Scheme::Prediction,
        Scheme::PredictionNoOverhead,
        Scheme::PredictionBoost,
        Scheme::Oracle,
    ];

    /// The scheme's display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Table => "table",
            Scheme::Pid => "pid",
            Scheme::Prediction => "prediction",
            Scheme::PredictionNoOverhead => "prediction-no-ovh",
            Scheme::PredictionBoost => "prediction+boost",
            Scheme::Oracle => "oracle",
        }
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Workload seed.
    pub seed: u64,
    /// Paper-scale or quick workloads.
    pub size: WorkloadSize,
    /// Per-job deadline (the paper's 60 fps ⇒ 16.7 ms).
    pub deadline_s: f64,
    /// ASIC or FPGA ladder/curve.
    pub platform: Platform,
    /// Model-fitting hyper-parameters.
    pub trainer: TrainerConfig,
    /// DVFS switching model.
    pub switching: SwitchingModel,
    /// Slice generation flavor (RTL vs HLS).
    pub flavor: SliceFlavor,
    /// Disables the slice's FSM rewrite (ablation).
    pub slice_options: SliceOptions,
}

impl ExperimentConfig {
    /// The paper's default setup for a platform.
    pub fn paper_default(platform: Platform) -> ExperimentConfig {
        ExperimentConfig {
            seed: 42,
            size: WorkloadSize::Full,
            deadline_s: 16.7e-3,
            platform,
            trainer: TrainerConfig::default(),
            switching: SwitchingModel::off_chip(),
            flavor: SliceFlavor::Rtl,
            slice_options: SliceOptions::default(),
        }
    }

    /// A scaled-down configuration for tests.
    pub fn quick(platform: Platform) -> ExperimentConfig {
        let mut c = ExperimentConfig::paper_default(platform);
        c.size = WorkloadSize::Quick;
        c
    }
}

/// Slice overhead summary (Fig. 12 / Fig. 17 rows).
#[derive(Debug, Clone, Copy)]
pub struct SliceOverheads {
    /// Slice area as a fraction of the accelerator (ASIC), percent.
    pub area_pct: f64,
    /// Slice resources as mean LUT/DSP/BRAM share (FPGA), percent.
    pub resource_pct: f64,
    /// Mean slice energy per job relative to job energy, percent.
    pub energy_pct: f64,
    /// Mean slice time relative to the deadline, percent.
    pub time_pct: f64,
}

/// A fully prepared benchmark experiment.
pub struct Experiment {
    /// The benchmark descriptor.
    pub bench: Benchmark,
    /// The accelerator's module, analysis and compiled VM, shared with
    /// every experiment of the benchmark on the same cache.
    pub design: Arc<Design>,
    /// Fitted execution-time model, shared with every experiment of the
    /// same training problem and trainer.
    pub model: Arc<ExecTimeModel>,
    /// Generated hardware slice + probes, shared with every experiment
    /// whose model selects the same features under the same slice options
    /// and flavor.
    pub predictor: Arc<SlicePredictor>,
    /// Workloads (train is consumed for fitting; test drives every
    /// figure), shared with the trace bundle they came from.
    pub workloads: Arc<Workloads>,
    /// Execution traces at nominal frequency of test jobs
    /// `0..test_traces.len()`, shared with the trace bundle they came
    /// from: every test job after [`Experiment::prepare_cached`], the
    /// first `test_jobs` after [`Experiment::prepare_reading`].
    pub test_traces: Arc<Vec<JobTrace>>,
    /// Per-train-job cycles (for the table controller).
    pub train_cycles: Vec<u64>,
    /// Accelerator energy model (leakage calibrated).
    pub energy: EnergyModel,
    /// Slice energy model.
    pub slice_energy: EnergyModel,
    /// The DVFS ladder with boost attached.
    pub dvfs: DvfsModel,
    /// FPGA resources of the full design.
    pub fpga_full: FpgaResources,
    /// FPGA resources of the slice.
    pub fpga_slice: FpgaResources,
    /// Raw feature count before Lasso selection.
    pub raw_feature_count: usize,
    config: ExperimentConfig,
    f_hz: f64,
    /// The slice's runs over the test set, built by the first reader of
    /// any experiment that shares the slice and the workloads.
    slice_table: Arc<TableCell>,
}

impl Experiment {
    /// Builds, trains, slices, and profiles one benchmark.
    ///
    /// # Errors
    ///
    /// Propagates training, slicing, and simulation failures.
    pub fn prepare(
        bench: Benchmark,
        config: ExperimentConfig,
    ) -> Result<Experiment, predvfs::CoreError> {
        Experiment::prepare_cached(bench, config, &TraceCache::new())
    }

    /// Like [`Experiment::prepare`], but serves every preparation layer
    /// from `cache`, so configurations sharing `(benchmark, seed, size)`
    /// — e.g. the ASIC and FPGA variants, or an ablation grid — pay for
    /// one trace pass instead of one each, and those that also share the
    /// trainer, slice options and flavor for one fit, one slice and one
    /// slice table. They share these by `Arc` instead of copying them.
    /// The experiment holds every test trace.
    ///
    /// # Errors
    ///
    /// Propagates training, slicing, and simulation failures.
    pub fn prepare_cached(
        bench: Benchmark,
        config: ExperimentConfig,
        cache: &TraceCache,
    ) -> Result<Experiment, predvfs::CoreError> {
        Experiment::prepare_reading(bench, config, cache, usize::MAX)
    }

    /// Like [`Experiment::prepare_cached`], but simulates only the test
    /// jobs `0..test_jobs` (capped at the test set) that the cache does
    /// not hold yet; `test_traces` holds at least those. For a caller that
    /// reads no other test trace, such as a serve class: the scheme runs
    /// and [`Experiment::exec_time_stats_ms`] read every test trace and
    /// need [`Experiment::prepare_cached`].
    ///
    /// # Errors
    ///
    /// Propagates training, slicing, and simulation failures.
    pub fn prepare_reading(
        bench: Benchmark,
        config: ExperimentConfig,
        cache: &TraceCache,
        test_jobs: usize,
    ) -> Result<Experiment, predvfs::CoreError> {
        let _span = predvfs_obs::span("sim.prepare");
        let f_hz = bench.f_nominal_mhz * 1e6;
        let design = cache.design(&bench)?;
        let bundle = cache.traces(&bench, config.seed, config.size, test_jobs)?;
        let model = cache.fit(&bundle, &config.trainer)?;
        let predictor = cache.slice(&design, &model, config.slice_options, config.flavor)?;
        let slice_table = cache.slice_table(&bundle, &model, config.slice_options, config.flavor);
        let module = &design.module;
        let data = &bundle.data;
        let raw_feature_count = data.schema.len();
        let train_cycles: Vec<u64> = data.y.iter().map(|&c| c as u64).collect();

        // Energy models, leakage calibrated on the training profile.
        // The profile traces are reused directly: probes are
        // timing-neutral, so cycle and activity counts match what a
        // fresh unprobed simulation of the same jobs would report.
        let area_model = AsicAreaModel::default();
        let params = PowerParams::default();
        let area = area_model.area(module);
        let mut energy = EnergyModel::new(module, &area, &params, f_hz, 1.0);
        let avg_dyn = {
            let mut pj = 0.0;
            let mut cycles = 0u64;
            for t in data.traces.iter().take(20) {
                pj += energy.dynamic_pj_nominal(t.cycles, &t.dp_active);
                cycles += t.cycles;
            }
            pj / cycles.max(1) as f64
        };
        energy.calibrate_leakage(avg_dyn, bench.leak_share);
        let slice_area_raw = area_model.area(predictor.module());
        let slice_area = predvfs_rtl::AreaBreakdown {
            control_um2: slice_area_raw.control_um2 * predictor.area_factor(),
            datapath_um2: slice_area_raw.datapath_um2 * predictor.area_factor(),
            memory_um2: slice_area_raw.memory_um2 * predictor.area_factor(),
        };
        let mut slice_energy =
            EnergyModel::new(predictor.module(), &slice_area, &params, f_hz, 1.0);
        slice_energy.calibrate_leakage(
            avg_dyn * slice_area.total_um2() / area.total_um2().max(1.0),
            bench.leak_share,
        );

        // Ladder for the platform, boost always attached (controllers opt in).
        let dvfs = match config.platform {
            Platform::Asic => {
                let curve = AlphaPowerCurve::default();
                DvfsModel::new(
                    Ladder::asic(&curve).with_boost(&curve, 1.08),
                    config.switching,
                )
            }
            Platform::Fpga => {
                let curve = TableCurve::kintex7();
                DvfsModel::new(
                    Ladder::fpga(&curve).with_boost(&curve, 1.08),
                    config.switching,
                )
            }
        };

        let fpga_model = FpgaResourceModel::default();
        let fpga_full = fpga_model.resources(module);
        let fpga_slice = fpga_model.resources(predictor.module());

        Ok(Experiment {
            bench,
            workloads: Arc::clone(&bundle.workloads),
            test_traces: Arc::clone(&bundle.test_traces),
            design,
            model,
            predictor,
            train_cycles,
            energy,
            slice_energy,
            dvfs,
            fpga_full,
            fpga_slice,
            raw_feature_count,
            config,
            f_hz,
            slice_table,
        })
    }

    /// The experiment's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The slice's runs over the test set: entry `i` is test job `i`'s
    /// features, slice cycles and datapath activity. A slice's output
    /// depends only on its job, so every slice-reading scheme and sweep
    /// point of every experiment that shares this one's slice and
    /// workloads shares one pass. The first caller builds it (concurrent
    /// first callers wait for that one build); preparation never does.
    /// Serve builds its own tables, sized to the test jobs its streams
    /// submit, and never calls this.
    ///
    /// # Errors
    ///
    /// Returns the slice failure of the lowest-indexed test job, on every
    /// call.
    pub fn slice_table(&self) -> Result<&SliceTable, predvfs::CoreError> {
        self.slice_table
            .get_or_run(&self.predictor, &self.workloads.test)
    }

    /// Runs one scheme over the test set with the configured deadline.
    ///
    /// # Errors
    ///
    /// Propagates controller failures.
    pub fn run(&self, scheme: Scheme) -> Result<SchemeResult, predvfs::CoreError> {
        self.run_with_deadline(scheme, self.config.deadline_s)
    }

    /// Runs several schemes over the test set, fanned out in parallel.
    ///
    /// Each scheme's controller is private to its worker and the result
    /// vector is collected in `schemes` order, so the output is
    /// bit-identical to calling [`Experiment::run`] serially for each
    /// scheme in turn.
    ///
    /// # Errors
    ///
    /// Returns the error of the first (lowest-indexed) failing scheme,
    /// matching the serial path.
    pub fn run_all(&self, schemes: &[Scheme]) -> Result<Vec<SchemeResult>, predvfs::CoreError> {
        predvfs_par::par_try_map(schemes, |&scheme| self.run(scheme))
    }

    /// Runs one scheme with an overridden deadline (Fig. 15 sweeps).
    ///
    /// # Errors
    ///
    /// Propagates controller failures.
    pub fn run_with_deadline(
        &self,
        scheme: Scheme,
        deadline_s: f64,
    ) -> Result<SchemeResult, predvfs::CoreError> {
        let _span = predvfs_obs::span("sim.scheme");
        let physical_switch = match scheme {
            Scheme::PredictionNoOverhead | Scheme::Oracle => SwitchingModel::free(),
            _ => self.config.switching,
        };
        let cfg = RunConfig {
            deadline_s,
            switching: physical_switch,
        };
        let dvfs = self.dvfs.clone();
        let jobs = &self.workloads.test;
        let traces = &self.test_traces;
        let mut result = match scheme {
            Scheme::Baseline => {
                let mut c = BaselineController::new(dvfs.clone());
                run_scheme(&mut c, jobs, traces, &self.energy, None, &dvfs, &cfg)?
            }
            Scheme::Table => {
                let mut c = TableController::from_profile(
                    dvfs.clone(),
                    self.f_hz,
                    &self.workloads.train,
                    &self.train_cycles,
                    4,
                );
                run_scheme(&mut c, jobs, traces, &self.energy, None, &dvfs, &cfg)?
            }
            Scheme::Pid => {
                let mut c = PidController::tuned(dvfs.clone(), self.f_hz);
                run_scheme(&mut c, jobs, traces, &self.energy, None, &dvfs, &cfg)?
            }
            Scheme::Prediction => {
                let mut c = PredictiveController::new(
                    dvfs.clone(),
                    self.f_hz,
                    self.slice_table()?,
                    &self.model,
                );
                run_scheme(
                    &mut c,
                    jobs,
                    traces,
                    &self.energy,
                    Some(&self.slice_energy),
                    &dvfs,
                    &cfg,
                )?
            }
            Scheme::PredictionNoOverhead => {
                let mut c = PredictiveController::new(
                    dvfs.clone(),
                    self.f_hz,
                    self.slice_table()?,
                    &self.model,
                );
                c.ignore_overheads = true;
                run_scheme(&mut c, jobs, traces, &self.energy, None, &dvfs, &cfg)?
            }
            Scheme::PredictionBoost => {
                let mut boosted = dvfs.clone();
                boosted.use_boost = true;
                let mut c = PredictiveController::new(
                    boosted.clone(),
                    self.f_hz,
                    self.slice_table()?,
                    &self.model,
                );
                run_scheme(
                    &mut c,
                    jobs,
                    traces,
                    &self.energy,
                    Some(&self.slice_energy),
                    &boosted,
                    &cfg,
                )?
            }
            Scheme::Oracle => {
                let actual: Vec<u64> = traces.iter().map(|t| t.cycles).collect();
                let mut c = OracleController::new(dvfs.clone(), self.f_hz, actual);
                run_scheme(&mut c, jobs, traces, &self.energy, None, &dvfs, &cfg)?
            }
        };
        result.scheme = scheme.name().to_owned();
        Ok(result)
    }

    /// Per-test-job execution-time statistics in milliseconds:
    /// `(max, avg, min)` — the Table 4 columns.
    pub fn exec_time_stats_ms(&self) -> (f64, f64, f64) {
        let ms: Vec<f64> = self
            .test_traces
            .iter()
            .map(|t| t.cycles as f64 / self.f_hz * 1e3)
            .collect();
        let max = ms.iter().cloned().fold(f64::MIN, f64::max);
        let min = ms.iter().cloned().fold(f64::MAX, f64::min);
        let avg = ms.iter().sum::<f64>() / ms.len().max(1) as f64;
        (max, avg, min)
    }

    /// Slice overheads for Fig. 12 (ASIC) / Fig. 17 (FPGA), computed from
    /// a prediction run.
    ///
    /// # Errors
    ///
    /// Propagates controller failures.
    pub fn slice_overheads(&self) -> Result<SliceOverheads, predvfs::CoreError> {
        let pred = self.run(Scheme::Prediction)?;
        let area_model = AsicAreaModel::default();
        let full = area_model.area(&self.design.module).total_um2();
        let slice =
            area_model.area(self.predictor.module()).total_um2() * self.predictor.area_factor();
        Ok(SliceOverheads {
            area_pct: 100.0 * slice / full,
            resource_pct: 100.0 * self.fpga_slice.mean_share_of(&self.fpga_full),
            energy_pct: pred.mean_slice_energy_pct(),
            time_pct: pred.mean_slice_time_pct(self.config.deadline_s),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LayerCounts;
    use predvfs_accel::by_name;

    fn quick(name: &str) -> Experiment {
        let bench = by_name(name).unwrap();
        Experiment::prepare(bench, ExperimentConfig::quick(Platform::Asic)).unwrap()
    }

    #[test]
    fn prediction_beats_baseline_on_sha() {
        let e = quick("sha");
        let base = e.run(Scheme::Baseline).unwrap();
        let pred = e.run(Scheme::Prediction).unwrap();
        assert_eq!(base.misses(), 0);
        assert!(
            pred.normalized_energy_pct(&base) < 90.0,
            "prediction saved only {:.1}%",
            100.0 - pred.normalized_energy_pct(&base)
        );
    }

    #[test]
    fn oracle_is_a_lower_bound() {
        let e = quick("aes");
        let oracle = e.run(Scheme::Oracle).unwrap();
        let pred = e.run(Scheme::Prediction).unwrap();
        assert!(oracle.total_energy_pj() <= pred.total_energy_pj() * 1.001);
        assert_eq!(oracle.misses(), 0);
    }

    #[test]
    fn no_overhead_prediction_at_least_as_good() {
        let e = quick("md");
        let pred = e.run(Scheme::Prediction).unwrap();
        let noovh = e.run(Scheme::PredictionNoOverhead).unwrap();
        assert!(noovh.total_energy_pj() <= pred.total_energy_pj() * 1.001);
    }

    #[test]
    fn slice_table_is_built_by_its_first_reader_only() {
        let e = quick("sha");
        assert!(!e.slice_table.is_built(), "prepare ran the slice");
        e.run_all(&[Scheme::Baseline, Scheme::Pid, Scheme::Oracle])
            .unwrap();
        assert!(!e.slice_table.is_built(), "a reactive scheme ran the slice");
        let pred = e.run(Scheme::Prediction).unwrap();
        assert!(e.slice_table.is_built(), "prediction built the table");
        let runs = e.slice_table().unwrap().runs();
        assert_eq!(runs.len(), e.workloads.test.len());
        for (record, run) in pred.records.iter().zip(runs) {
            assert_eq!(record.slice_s, run.cycles / e.f_hz);
        }
    }

    #[test]
    fn exec_stats_and_overheads_are_sane() {
        let e = quick("stencil");
        let (max, avg, min) = e.exec_time_stats_ms();
        assert!(max >= avg && avg >= min && min > 0.0);
        let ovh = e.slice_overheads().unwrap();
        assert!(ovh.area_pct > 0.0 && ovh.area_pct < 100.0);
        assert!(ovh.time_pct >= 0.0 && ovh.time_pct < 50.0);
        assert!(ovh.energy_pct >= 0.0 && ovh.energy_pct < 50.0);
        assert!(ovh.resource_pct > 0.0);
    }

    #[test]
    fn prepared_experiments_share_the_cached_bundle() {
        let bench = by_name("sha").unwrap();
        let cache = TraceCache::new();
        let asic =
            Experiment::prepare_cached(bench, ExperimentConfig::quick(Platform::Asic), &cache)
                .unwrap();
        let fpga =
            Experiment::prepare_cached(bench, ExperimentConfig::quick(Platform::Fpga), &cache)
                .unwrap();
        let bundle = cache
            .get_or_simulate(&bench, 42, WorkloadSize::Quick)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        for e in [&asic, &fpga] {
            assert!(Arc::ptr_eq(&e.workloads, &bundle.workloads));
            assert!(Arc::ptr_eq(&e.test_traces, &bundle.test_traces));
        }
    }

    /// Four configurations of one training problem on one cache: the
    /// paper's ASIC setup, the FPGA platform, HLS slicing and a faster
    /// regulator. Only the flavor reaches a layer, so they make one trace
    /// pass, one compile of the design, one fit, an RTL and an HLS slice,
    /// and one table per slice; and each runs every scheme exactly as it
    /// does prepared on a cache of its own.
    #[test]
    fn configurations_of_one_problem_share_every_layer_but_the_flavor() {
        let bench = by_name("sha").unwrap();
        let asic = ExperimentConfig::quick(Platform::Asic);
        let configs = [
            asic.clone(),
            ExperimentConfig::quick(Platform::Fpga),
            ExperimentConfig {
                flavor: SliceFlavor::hls_default(),
                ..asic.clone()
            },
            ExperimentConfig {
                switching: SwitchingModel {
                    transition_s: 1e-6,
                    transition_pj: 0.0,
                },
                ..asic
            },
        ];
        let cache = TraceCache::new();
        let shared: Vec<Experiment> = configs
            .iter()
            .map(|c| Experiment::prepare_cached(bench, c.clone(), &cache).unwrap())
            .collect();
        for (i, (e, config)) in shared.iter().zip(&configs).enumerate() {
            let alone = Experiment::prepare(bench, config.clone()).unwrap();
            assert_eq!(
                e.run_all(&Scheme::ALL).unwrap(),
                alone.run_all(&Scheme::ALL).unwrap(),
                "configuration {i}"
            );
        }
        assert_eq!(cache.misses(), 1, "one trace pass");
        assert_eq!(
            cache.counts(),
            LayerCounts {
                designs: 1,
                bundles: 1,
                fits: 1,
                slices: 2,
                slice_tables: 2,
            }
        );
        let [asic, fpga, hls, fast] = &shared[..] else {
            unreachable!("four configurations")
        };
        for e in [fpga, hls, fast] {
            assert!(Arc::ptr_eq(&e.design, &asic.design));
            assert!(Arc::ptr_eq(&e.model, &asic.model));
        }
        assert!(Arc::ptr_eq(&fpga.predictor, &asic.predictor));
        assert!(Arc::ptr_eq(&fast.predictor, &asic.predictor));
        assert!(!Arc::ptr_eq(&hls.predictor, &asic.predictor));
        assert!(Arc::ptr_eq(&fpga.slice_table, &asic.slice_table));
    }

    #[test]
    fn fpga_platform_prepares_and_runs() {
        let bench = by_name("sha").unwrap();
        let e = Experiment::prepare(bench, ExperimentConfig::quick(Platform::Fpga)).unwrap();
        assert_eq!(e.dvfs.ladder.len(), 7);
        let base = e.run(Scheme::Baseline).unwrap();
        let pred = e.run(Scheme::Prediction).unwrap();
        assert!(pred.total_energy_pj() < base.total_energy_pj());
    }
}
