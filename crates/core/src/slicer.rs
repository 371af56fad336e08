//! The runtime predictor: a hardware slice plus the linear model.
//!
//! [`SlicePredictor`] packages the sliced module (§3.5), compiled once for
//! the bytecode VM, with its probe program and cost metadata. A
//! [`SliceRunner`] executes the slice for one job to obtain feature
//! values and the slice's own execution cycles, which the DVFS model must
//! budget for. A slice's output depends only on its job, so
//! [`SlicePredictor::run_all`] evaluates a whole job set once into a
//! [`SliceTable`] that every controller reads by job index.

use predvfs_rtl::{
    slice, Analysis, CompiledSim, DatapathKind, ExecMode, JobInput, Module, ProbeProgram, RtlError,
    SliceOptions, SliceReport,
};

use crate::error::CoreError;
use crate::model::ExecTimeModel;

/// How the slice was generated (§4.5's HLS extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SliceFlavor {
    /// Sliced at RTL level: serial states run at the original rate.
    Rtl,
    /// Sliced at C level and re-synthesized by HLS: the tool pipelines the
    /// serial scans, dividing their cycles by `serial_speedup`, and
    /// re-optimizes area by `area_factor`.
    Hls {
        /// Speedup applied to serial-state cycles.
        serial_speedup: f64,
        /// Area scale relative to the RTL slice.
        area_factor: f64,
    },
}

impl SliceFlavor {
    /// The paper's HLS configuration for Fig. 18/19.
    pub fn hls_default() -> SliceFlavor {
        SliceFlavor::Hls {
            serial_speedup: 4.0,
            area_factor: 0.85,
        }
    }
}

/// A generated execution-time predictor: slice hardware + linear model.
#[derive(Debug)]
pub struct SlicePredictor {
    module: Module,
    sim: CompiledSim,
    probes: ProbeProgram,
    report: SliceReport,
    flavor: SliceFlavor,
    serial_dp_indices: Vec<usize>,
}

impl SlicePredictor {
    /// Slices `module` down to the features selected by `model` and
    /// compiles the slice for the VM, once for every runner.
    ///
    /// # Errors
    ///
    /// Propagates slicing and slice-compilation failures ([`RtlError`]).
    pub fn generate(
        module: &Module,
        model: &ExecTimeModel,
        options: SliceOptions,
        flavor: SliceFlavor,
    ) -> Result<SlicePredictor, CoreError> {
        let _span = predvfs_obs::span("core.slice_build");
        let schema = model.schema();
        let selected = model.selected_nonbias();
        let (sliced, report) = slice(module, schema, &selected, options)?;
        let analysis = Analysis::run(&sliced);
        let probes = schema.probe_program(&analysis);
        let sim = CompiledSim::with_analysis(&sliced, &analysis)?;
        let serial_dp_indices = sliced
            .datapaths
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind == DatapathKind::Serial)
            .map(|(i, _)| i)
            .collect();
        Ok(SlicePredictor {
            module: sliced,
            sim,
            probes,
            report,
            flavor,
            serial_dp_indices,
        })
    }

    /// The sliced module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The probe program the slice runs with.
    pub fn probes(&self) -> &ProbeProgram {
        &self.probes
    }

    /// What the slicer kept and removed.
    pub fn report(&self) -> &SliceReport {
        &self.report
    }

    /// The slice generation flavor.
    pub fn flavor(&self) -> SliceFlavor {
        self.flavor
    }

    /// Area scale factor implied by the flavor.
    pub fn area_factor(&self) -> f64 {
        match self.flavor {
            SliceFlavor::Rtl => 1.0,
            SliceFlavor::Hls { area_factor, .. } => area_factor,
        }
    }

    /// Creates a runner over the compiled slice; free, since the slice was
    /// compiled by [`SlicePredictor::generate`].
    pub fn runner(&self) -> SliceRunner<'_> {
        SliceRunner { predictor: self }
    }

    /// Runs the slice over every job, fanned out with [`predvfs_par`],
    /// into a table whose entry `i` is job `i`'s run.
    ///
    /// # Errors
    ///
    /// Returns the [`RtlError`] of the lowest-indexed job whose slice
    /// hangs, as a serial loop would.
    pub fn run_all(&self, jobs: &[JobInput]) -> Result<SliceTable, RtlError> {
        let runner = self.runner();
        let runs = predvfs_par::par_try_map(jobs, |job| runner.run(job))?;
        Ok(SliceTable { runs })
    }
}

/// Result of executing the slice for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceRun {
    /// The feature vector (full schema width).
    pub features: Vec<f64>,
    /// Cycles the slice occupied, after any HLS speedup.
    pub cycles: f64,
    /// Per-datapath activity (for slice energy accounting).
    pub dp_active: Vec<u64>,
}

/// The slice's output for every job of a job set, in input order; build
/// with [`SlicePredictor::run_all`], or collect it from runs in job order
/// (`collect::<Result<SliceTable, RtlError>>()` keeps the first error).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliceTable {
    runs: Vec<SliceRun>,
}

impl FromIterator<SliceRun> for SliceTable {
    fn from_iter<I: IntoIterator<Item = SliceRun>>(runs: I) -> SliceTable {
        SliceTable {
            runs: runs.into_iter().collect(),
        }
    }
}

impl SliceTable {
    /// The run of job `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SliceTableExhausted`] past the last job.
    pub fn get(&self, index: usize) -> Result<&SliceRun, CoreError> {
        self.runs.get(index).ok_or(CoreError::SliceTableExhausted {
            index,
            len: self.runs.len(),
        })
    }

    /// Every run, in job order.
    pub fn runs(&self) -> &[SliceRun] {
        &self.runs
    }
}

/// Executes the slice on the VM in Compressed mode; create via
/// [`SlicePredictor::runner`].
#[derive(Debug, Clone)]
pub struct SliceRunner<'p> {
    predictor: &'p SlicePredictor,
}

impl SliceRunner<'_> {
    /// Runs the slice over one job's input.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if the slice hangs (which would indicate a
    /// slicing bug).
    pub fn run(&self, job: &JobInput) -> Result<SliceRun, RtlError> {
        let _span = predvfs_obs::span("core.slice.run");
        let p = self.predictor;
        let t = p.sim.run(job, ExecMode::Compressed, Some(&p.probes))?;
        let mut cycles = t.cycles as f64;
        if let SliceFlavor::Hls { serial_speedup, .. } = p.flavor {
            let serial: u64 = p.serial_dp_indices.iter().map(|&i| t.dp_active[i]).sum();
            let serial = (serial as f64).min(cycles);
            cycles = cycles - serial + serial / serial_speedup;
        }
        Ok(SliceRun {
            features: t.features,
            cycles,
            dp_active: t.dp_active,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainerConfig};
    use predvfs_accel::{md, WorkloadSize};

    fn setup() -> (predvfs_rtl::Module, ExecTimeModel) {
        let m = md::build();
        let w = md::workloads(7, WorkloadSize::Quick);
        let model = train(&m, &w.train, &TrainerConfig::default()).unwrap();
        (m, model)
    }

    #[test]
    fn slice_features_match_full_design() {
        let (m, model) = setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let runner = sp.runner();
        let data =
            crate::train::profile(&m, &md::workloads(8, WorkloadSize::Quick).test[..3]).unwrap();
        let jobs = md::workloads(8, WorkloadSize::Quick).test;
        for (i, job) in jobs.iter().take(3).enumerate() {
            let run = runner.run(job).unwrap();
            for &c in model.selected() {
                assert_eq!(run.features[c], data.x.get(i, c), "feature {c} of job {i}");
            }
        }
    }

    #[test]
    fn run_all_matches_runner_in_job_order() {
        let (m, model) = setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let jobs = md::workloads(8, WorkloadSize::Quick).test;
        let table = predvfs_par::with_threads(4, || sp.run_all(&jobs)).unwrap();
        assert_eq!(table.runs().len(), jobs.len());
        let runner = sp.runner();
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(table.get(i), Ok(&runner.run(job).unwrap()), "job {i}");
        }
        let collected: Result<SliceTable, RtlError> =
            jobs.iter().map(|job| runner.run(job)).collect();
        assert_eq!(collected.as_ref(), Ok(&table));
        let n = jobs.len();
        assert_eq!(
            table.get(n),
            Err(CoreError::SliceTableExhausted { index: n, len: n })
        );
    }

    #[test]
    fn hls_flavor_shrinks_serial_time() {
        let (m, model) = setup();
        let rtl = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let hls = SlicePredictor::generate(
            &m,
            &model,
            SliceOptions::default(),
            SliceFlavor::hls_default(),
        )
        .unwrap();
        let job = &md::workloads(9, WorkloadSize::Quick).test[0];
        let tr = rtl.runner().run(job).unwrap();
        let th = hls.runner().run(job).unwrap();
        assert!(
            th.cycles < tr.cycles * 0.5,
            "{} vs {}",
            th.cycles,
            tr.cycles
        );
        assert_eq!(tr.features, th.features);
        assert!(hls.area_factor() < 1.0);
        assert_eq!(rtl.area_factor(), 1.0);
    }

    #[test]
    fn slice_is_small_and_fast() {
        let (m, model) = setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let full_area = predvfs_rtl::AsicAreaModel::default().area(&m).total_um2();
        let slice_area = predvfs_rtl::AsicAreaModel::default()
            .area(sp.module())
            .total_um2();
        assert!(
            slice_area < full_area * 0.5,
            "slice {slice_area:.0} vs full {full_area:.0}"
        );
        assert!(!sp.report().dropped_datapaths.is_empty());
    }
}
