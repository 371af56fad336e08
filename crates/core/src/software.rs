//! Software predictors (§4.5): running the feature computation on a CPU
//! instead of in slice hardware.
//!
//! Some accelerators have a functionally equivalent software
//! implementation (e.g. ffmpeg for H.264), or were generated from C by
//! HLS. The same sliced feature computation can then run on the host CPU:
//! the slice module is *interpreted* functionally, and the wall-clock cost
//! is modelled as executed operations over the CPU's effective throughput.

use crate::error::CoreError;
use crate::model::ExecTimeModel;
use crate::slicer::SliceTable;

/// CPU cost model for a software predictor.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Effective feature-computation throughput relative to the slice's
    /// clock (CPUs retire several slice-equivalent operations per cycle
    /// but run the computation as straight-line code).
    pub ops_per_second: f64,
    /// Average CPU power while running the predictor, in mW (energy is
    /// charged against the job's budget).
    pub active_power_mw: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            // A mobile big core sustains ~2 G simple ops/s on this kind of
            // pointer-light integer code.
            ops_per_second: 2.0e9,
            active_power_mw: 250.0,
        }
    }
}

/// A software predictor: slice semantics evaluated on the CPU, priced from
/// the slice's runs over the job set.
#[derive(Debug)]
pub struct SoftwarePredictor<'p> {
    slices: &'p SliceTable,
    model: &'p ExecTimeModel,
    cpu: CpuModel,
}

/// Outcome of a software prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwarePrediction {
    /// Predicted accelerator execution cycles.
    pub predicted_cycles: f64,
    /// CPU wall-clock time spent computing features, in seconds.
    pub cpu_time_s: f64,
    /// CPU energy spent, in pJ.
    pub cpu_energy_pj: f64,
}

impl<'p> SoftwarePredictor<'p> {
    /// Wraps the slice's runs over a job set (see
    /// [`crate::SlicePredictor::run_all`]) and a model with a CPU cost
    /// model.
    pub fn new(
        slices: &'p SliceTable,
        model: &'p ExecTimeModel,
        cpu: CpuModel,
    ) -> SoftwarePredictor<'p> {
        SoftwarePredictor { slices, model, cpu }
    }

    /// Predicts the execution time of job `index` of the job set by
    /// evaluating the slice in software.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SliceTableExhausted`] past the last job.
    pub fn predict(&self, index: usize) -> Result<SoftwarePrediction, CoreError> {
        let run = self.slices.get(index)?;
        let predicted_cycles = self.model.predict_cycles(&run.features);
        // The software version executes the same control decisions but as
        // instructions, not cycles.
        let cpu_time_s = run.cycles / self.cpu.ops_per_second;
        let cpu_energy_pj = self.cpu.active_power_mw * 1e9 * cpu_time_s;
        Ok(SoftwarePrediction {
            predicted_cycles,
            cpu_time_s,
            cpu_energy_pj,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicer::{SliceFlavor, SlicePredictor};
    use crate::train::{profile, train, TrainerConfig};
    use predvfs_accel::{sha, WorkloadSize};
    use predvfs_rtl::SliceOptions;

    #[test]
    fn software_prediction_matches_hardware_slice() {
        let m = sha::build();
        let w = sha::workloads(3, WorkloadSize::Quick);
        let model = train(&m, &w.train, &TrainerConfig::default()).unwrap();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let table = sp.run_all(&w.test[..3]).unwrap();
        let sw = SoftwarePredictor::new(&table, &model, CpuModel::default());
        let data = profile(&m, &w.test[..3]).unwrap();
        for i in 0..3 {
            let p = sw.predict(i).unwrap();
            let actual = data.y[i];
            let rel = (p.predicted_cycles - actual) / actual;
            assert!(rel.abs() < 0.10, "job {i}: rel err {rel}");
            assert!(p.cpu_time_s > 0.0);
            assert!(p.cpu_energy_pj > 0.0);
        }
        assert_eq!(
            sw.predict(3),
            Err(CoreError::SliceTableExhausted { index: 3, len: 3 })
        );
    }
}
