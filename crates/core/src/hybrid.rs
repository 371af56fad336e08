//! Hybrid predictive + reactive control (an extension beyond the paper).
//!
//! The slice-based predictor is blind to state the feature mining cannot
//! classify — djpeg's variable-latency Huffman drain is the shipped
//! example. Whatever that hidden state contributes shows up as a slowly
//! varying *residual* between predicted and actual time. The hybrid
//! controller keeps the look-ahead prediction but multiplies it by an
//! exponentially weighted estimate of that residual ratio, combining the
//! paper's predictive scheme with exactly the kind of feedback reactive
//! controllers use — but applied to the residual (slow, smooth) rather
//! than the raw execution time (fast, spiky), so it does not inherit the
//! PID's lag problem.

use crate::controllers::{Decision, DvfsController, JobContext};
use crate::dvfs::DvfsModel;
use crate::error::CoreError;
use crate::model::ExecTimeModel;
use crate::slicer::SliceTable;

/// Predictive controller with EWMA residual correction.
#[derive(Debug, Clone)]
pub struct HybridController<'p> {
    dvfs: DvfsModel,
    f_nominal_hz: f64,
    slices: &'p SliceTable,
    model: &'p ExecTimeModel,
    /// EWMA smoothing factor for the residual ratio.
    pub ewma_alpha: f64,
    /// When true, the correction may also *lower* predictions (reclaiming
    /// energy from a systematically over-predicting model); when false
    /// (default), corrections only ever make decisions more conservative.
    pub allow_downward: bool,
    ratio: f64,
    last_prediction: Option<f64>,
}

impl<'p> HybridController<'p> {
    /// Creates the controller over the slice's runs for the job set;
    /// `ewma_alpha` defaults to 0.2.
    pub fn new(
        dvfs: DvfsModel,
        f_nominal_hz: f64,
        slices: &'p SliceTable,
        model: &'p ExecTimeModel,
    ) -> HybridController<'p> {
        HybridController {
            dvfs,
            f_nominal_hz,
            slices,
            model,
            ewma_alpha: 0.2,
            allow_downward: false,
            ratio: 1.0,
            last_prediction: None,
        }
    }

    /// The current residual-ratio estimate (actual / predicted).
    pub fn residual_ratio(&self) -> f64 {
        self.ratio
    }
}

impl DvfsController for HybridController<'_> {
    fn name(&self) -> &str {
        "hybrid"
    }

    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        let run = self.slices.get(ctx.index)?;
        let raw = self.model.predict_cycles(&run.features);
        // Correct by the learned residual. By default never go *below*
        // the raw model's own conservative fit; with `allow_downward` a
        // persistent over-prediction bias is reclaimed as energy.
        let factor = if self.allow_downward {
            self.ratio
        } else {
            self.ratio.max(1.0)
        };
        let corrected = raw * factor;
        self.last_prediction = Some(raw);
        let slice_time_s = run.cycles / self.f_nominal_hz;
        let choice = self
            .dvfs
            .choose(corrected, self.f_nominal_hz, ctx.deadline_s, slice_time_s);
        Ok(Decision {
            choice,
            slice_cycles: run.cycles,
            slice_dp_active: run.dp_active.clone(),
            predicted_cycles: Some(corrected),
        })
    }

    fn observe(&mut self, actual_cycles: u64) {
        if let Some(raw) = self.last_prediction.take() {
            if raw > 0.0 {
                let observed = actual_cycles as f64 / raw;
                self.ratio = (1.0 - self.ewma_alpha) * self.ratio + self.ewma_alpha * observed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicer::{SliceFlavor, SlicePredictor};
    use crate::train::{train, TrainerConfig};
    use predvfs_accel::{djpeg, WorkloadSize};
    use predvfs_power::{AlphaPowerCurve, Ladder, SwitchingModel};
    use predvfs_rtl::{ExecMode, Simulator, SliceOptions};

    fn dvfs() -> DvfsModel {
        let curve = AlphaPowerCurve::default();
        DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip())
    }

    #[test]
    fn hybrid_tracks_the_hidden_residual() {
        let m = djpeg::build();
        let w = djpeg::workloads(31, WorkloadSize::Quick);
        let model = train(&m, &w.train, &TrainerConfig::default()).unwrap();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let table = sp.run_all(&w.test).unwrap();
        let mut hybrid = HybridController::new(dvfs(), 250e6, &table, &model);
        let sim = Simulator::new(&m);
        let mut abs_err_hybrid = 0.0;
        let mut abs_err_raw = 0.0;
        let mut n = 0.0;
        let runner = sp.runner();
        for (i, job) in w.test.iter().enumerate() {
            let actual = sim.run(job, ExecMode::FastForward, None).unwrap().cycles as f64;
            let d = hybrid
                .decide(&JobContext {
                    job,
                    deadline_s: 16.7e-3,
                    index: i,
                })
                .unwrap();
            let raw = model.predict_cycles(&runner.run(job).unwrap().features);
            hybrid.observe(actual as u64);
            // Skip the warm-up jobs while the EWMA settles.
            if i >= 5 {
                abs_err_hybrid += (d.predicted_cycles.unwrap() - actual).abs() / actual;
                abs_err_raw += (raw - actual).abs() / actual;
                n += 1.0;
            }
        }
        let hybrid_mean = abs_err_hybrid / n;
        let raw_mean = abs_err_raw / n;
        assert!(
            hybrid_mean <= raw_mean * 1.05,
            "hybrid {hybrid_mean:.4} should not be worse than raw {raw_mean:.4}"
        );
        assert!(hybrid.residual_ratio() > 0.5 && hybrid.residual_ratio() < 2.0);
    }

    #[test]
    fn correction_never_reduces_below_raw_prediction() {
        let m = djpeg::build();
        let w = djpeg::workloads(32, WorkloadSize::Quick);
        let model = train(&m, &w.train, &TrainerConfig::default()).unwrap();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let table = sp.run_all(&w.test).unwrap();
        let mut hybrid = HybridController::new(dvfs(), 250e6, &table, &model);
        // Force a low ratio by observing much-faster-than-predicted jobs.
        for (i, job) in w.test.iter().take(5).enumerate() {
            let _ = hybrid
                .decide(&JobContext {
                    job,
                    deadline_s: 16.7e-3,
                    index: i,
                })
                .unwrap();
            hybrid.observe(1); // absurdly fast
        }
        assert!(hybrid.residual_ratio() < 1.0);
        let runner = sp.runner();
        let job = &w.test[6];
        let raw = model.predict_cycles(&runner.run(job).unwrap().features);
        let d = hybrid
            .decide(&JobContext {
                job,
                deadline_s: 16.7e-3,
                index: 6,
            })
            .unwrap();
        assert!(
            d.predicted_cycles.unwrap() >= raw * 0.999,
            "correction must stay conservative"
        );
    }

    /// A cheap trained setup for exercising the EWMA arithmetic.
    fn sha_setup() -> (predvfs_rtl::Module, predvfs_accel::Workloads, ExecTimeModel) {
        use predvfs_accel::sha;
        let m = sha::build();
        let w = sha::workloads(7, WorkloadSize::Quick);
        let model = train(&m, &w.train, &TrainerConfig::default()).unwrap();
        (m, w, model)
    }

    #[test]
    fn residual_ratio_follows_the_ewma_update() {
        let (m, w, model) = sha_setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let table = sp.run_all(&w.test).unwrap();
        let mut hybrid = HybridController::new(dvfs(), 500e6, &table, &model);
        assert_eq!(hybrid.residual_ratio(), 1.0);
        let runner = sp.runner();
        let mut expected = 1.0;
        for (i, job) in w.test.iter().take(3).enumerate() {
            let raw = model.predict_cycles(&runner.run(job).unwrap().features);
            hybrid
                .decide(&JobContext {
                    job,
                    deadline_s: 16.7e-3,
                    index: i,
                })
                .unwrap();
            // Pretend every job overruns its prediction by exactly 2x.
            let actual = (raw * 2.0).round() as u64;
            hybrid.observe(actual);
            expected = 0.8 * expected + 0.2 * (actual as f64 / raw);
            assert!(
                (hybrid.residual_ratio() - expected).abs() < 1e-12,
                "job {i}: ratio {} vs expected {expected}",
                hybrid.residual_ratio()
            );
        }
        assert!(hybrid.residual_ratio() > 1.0);
    }

    #[test]
    fn ewma_alpha_one_tracks_last_ratio_and_zero_freezes() {
        let (m, w, model) = sha_setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let runner = sp.runner();
        let table = sp.run_all(&w.test).unwrap();
        let job = &w.test[0];
        let raw = model.predict_cycles(&runner.run(job).unwrap().features);
        let ctx = JobContext {
            job,
            deadline_s: 16.7e-3,
            index: 0,
        };

        let mut eager = HybridController::new(dvfs(), 500e6, &table, &model);
        eager.ewma_alpha = 1.0;
        eager.decide(&ctx).unwrap();
        let actual = (raw * 3.0).round() as u64;
        eager.observe(actual);
        assert!(
            (eager.residual_ratio() - actual as f64 / raw).abs() < 1e-12,
            "alpha=1 must jump straight to the last observed ratio"
        );

        let mut frozen = HybridController::new(dvfs(), 500e6, &table, &model);
        frozen.ewma_alpha = 0.0;
        frozen.decide(&ctx).unwrap();
        frozen.observe(actual);
        assert_eq!(
            frozen.residual_ratio(),
            1.0,
            "alpha=0 must never move off the initial estimate"
        );
    }

    #[test]
    fn allow_downward_reclaims_overprediction() {
        let (m, w, model) = sha_setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let table = sp.run_all(&w.test).unwrap();
        let mut hybrid = HybridController::new(dvfs(), 500e6, &table, &model);
        hybrid.allow_downward = true;
        for (i, job) in w.test.iter().take(5).enumerate() {
            hybrid
                .decide(&JobContext {
                    job,
                    deadline_s: 16.7e-3,
                    index: i,
                })
                .unwrap();
            hybrid.observe(1); // the model vastly over-predicts
        }
        assert!(hybrid.residual_ratio() < 1.0);
        let runner = sp.runner();
        let job = &w.test[6];
        let raw = model.predict_cycles(&runner.run(job).unwrap().features);
        let d = hybrid
            .decide(&JobContext {
                job,
                deadline_s: 16.7e-3,
                index: 6,
            })
            .unwrap();
        assert!(
            d.predicted_cycles.unwrap() < raw,
            "downward correction must lower the corrected prediction"
        );
    }

    #[test]
    fn observe_without_a_pending_decision_is_a_noop() {
        let (_m, _w, model) = sha_setup();
        let table = SliceTable::default();
        let mut hybrid = HybridController::new(dvfs(), 500e6, &table, &model);
        hybrid.observe(123_456);
        assert_eq!(
            hybrid.residual_ratio(),
            1.0,
            "an observation with no matching decision must not move the EWMA"
        );
    }
}
