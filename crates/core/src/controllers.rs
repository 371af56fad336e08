//! DVFS controllers: the paper's evaluated schemes (§4.2).
//!
//! * [`BaselineController`] — constant nominal voltage/frequency.
//! * [`TableController`] — worst-case level per coarse input class
//!   (the Exynos MFC-style lookup table of §2.4).
//! * [`PidController`] — reactive control from execution-time history
//!   with a 10 % margin.
//! * [`PredictiveController`] — the paper's contribution: read the
//!   hardware slice's output for the job, predict execution time, set
//!   the minimal level.
//! * [`OracleController`] — knows each job's true execution time and pays
//!   no overheads; the energy lower bound of Fig. 13.

use predvfs_rtl::JobInput;

use crate::dvfs::{DvfsModel, LevelChoice};
use crate::error::CoreError;
use crate::model::ExecTimeModel;
use crate::slicer::SliceTable;

/// Per-job information available at decision time.
#[derive(Debug, Clone, Copy)]
pub struct JobContext<'a> {
    /// The upcoming job's input (readable by look-ahead predictors only).
    pub job: &'a JobInput,
    /// Wall-clock budget for the job.
    pub deadline_s: f64,
    /// Index of the job within its job set: the entry slice-reading
    /// controllers look up in their [`SliceTable`] (and the oracle in its
    /// cycle list).
    pub index: usize,
}

/// A controller's output for one job.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The selected operating point.
    pub choice: LevelChoice,
    /// Predictor-hardware cycles spent before the job (0 for reactive
    /// schemes).
    pub slice_cycles: f64,
    /// Slice datapath activity, for slice-energy accounting.
    pub slice_dp_active: Vec<u64>,
    /// The execution-time prediction, when one was made (cycles).
    pub predicted_cycles: Option<f64>,
}

impl Decision {
    fn overhead_free(choice: LevelChoice, predicted_cycles: Option<f64>) -> Decision {
        Decision {
            choice,
            slice_cycles: 0.0,
            slice_dp_active: Vec::new(),
            predicted_cycles,
        }
    }
}

/// A per-job DVFS policy.
pub trait DvfsController {
    /// The scheme's name as used in the paper's figures.
    fn name(&self) -> &str;

    /// Chooses the operating point for the upcoming job.
    ///
    /// # Errors
    ///
    /// Controllers that execute hardware (the predictive scheme's slice)
    /// may fail; pure policies never do.
    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError>;

    /// Feeds back the job's actual execution cycles (used by reactive
    /// schemes).
    fn observe(&mut self, actual_cycles: u64) {
        let _ = actual_cycles;
    }
}

/// Constant nominal voltage and frequency.
#[derive(Debug)]
pub struct BaselineController {
    dvfs: DvfsModel,
}

impl BaselineController {
    /// Creates the baseline over a ladder.
    pub fn new(dvfs: DvfsModel) -> BaselineController {
        BaselineController { dvfs }
    }
}

impl DvfsController for BaselineController {
    fn name(&self) -> &str {
        "baseline"
    }

    fn decide(&mut self, _ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        Ok(Decision::overhead_free(self.dvfs.nominal(), None))
    }
}

/// Worst-case level per coarse input class (indexed by token count, the
/// analogue of "resolution" in the Exynos MFC table).
#[derive(Debug)]
pub struct TableController {
    dvfs: DvfsModel,
    f_nominal_hz: f64,
    /// `(token-count upper bound, worst-case cycles)` rows, ascending.
    rows: Vec<(usize, u64)>,
}

impl TableController {
    /// Builds the table from profiled training jobs: token counts are
    /// split into `classes` equal-width classes and the worst observed
    /// cycles per class is recorded.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` and `cycles` lengths differ or are empty, or
    /// `classes == 0`.
    pub fn from_profile(
        dvfs: DvfsModel,
        f_nominal_hz: f64,
        jobs: &[JobInput],
        cycles: &[u64],
        classes: usize,
    ) -> TableController {
        assert_eq!(jobs.len(), cycles.len());
        assert!(!jobs.is_empty() && classes > 0);
        let max_tokens = jobs.iter().map(JobInput::len).max().expect("nonempty");
        let step = max_tokens.div_ceil(classes).max(1);
        let mut rows: Vec<(usize, u64)> = (1..=classes).map(|c| (c * step, 0u64)).collect();
        for (j, &c) in jobs.iter().zip(cycles) {
            let class = (j.len().saturating_sub(1)) / step;
            let class = class.min(classes - 1);
            rows[class].1 = rows[class].1.max(c);
        }
        // Fill empty classes from the class above (stay conservative).
        for i in (0..rows.len().saturating_sub(1)).rev() {
            if rows[i].1 == 0 {
                rows[i].1 = rows[i + 1].1;
            }
        }
        // Make worst-case monotone so larger inputs never map to less
        // conservative rows.
        for i in 1..rows.len() {
            rows[i].1 = rows[i].1.max(rows[i - 1].1);
        }
        TableController {
            dvfs,
            f_nominal_hz,
            rows,
        }
    }

    fn worst_for(&self, tokens: usize) -> u64 {
        for &(bound, cycles) in &self.rows {
            if tokens <= bound {
                return cycles;
            }
        }
        self.rows.last().map(|r| r.1).unwrap_or(0)
    }
}

impl DvfsController for TableController {
    fn name(&self) -> &str {
        "table"
    }

    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        let worst = self.worst_for(ctx.job.len()) as f64;
        let choice = self
            .dvfs
            .choose(worst, self.f_nominal_hz, ctx.deadline_s, 0.0);
        Ok(Decision::overhead_free(choice, Some(worst)))
    }
}

/// Reactive PID control over execution-time history.
///
/// The proportional path is *asymmetric*, as DVFS governors tuned against
/// deadline misses are in practice: an under-prediction (the error that
/// causes a miss) is corrected immediately and then some, while
/// over-predictions decay slowly. This is the "balance deadline miss rate
/// and energy savings" tuning the paper describes — it trades energy
/// (levels linger high after every spike) for fewer misses.
#[derive(Debug, Clone)]
pub struct PidController {
    dvfs: DvfsModel,
    f_nominal_hz: f64,
    kp_up: f64,
    kp_down: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    prev_error: f64,
    prediction: f64,
    started: bool,
}

impl PidController {
    /// Creates a PID controller with symmetric gains. `dvfs.margin_frac`
    /// should be the paper's 10 % for this scheme.
    pub fn new(dvfs: DvfsModel, f_nominal_hz: f64, kp: f64, ki: f64, kd: f64) -> PidController {
        PidController {
            dvfs,
            f_nominal_hz,
            kp_up: kp,
            kp_down: kp,
            ki,
            kd,
            integral: 0.0,
            prev_error: 0.0,
            prediction: 0.0,
            started: false,
        }
    }

    /// Sets asymmetric proportional gains: `up` applies to under-prediction
    /// errors (actual above prediction), `down` to over-prediction errors.
    pub fn with_asymmetric_gains(mut self, up: f64, down: f64) -> PidController {
        self.kp_up = up;
        self.kp_down = down;
        self
    }

    /// The paper's tuned configuration: conservative asymmetric gains, 10 %
    /// output margin.
    pub fn tuned(mut dvfs: DvfsModel, f_nominal_hz: f64) -> PidController {
        dvfs.margin_frac = 0.10;
        PidController::new(dvfs, f_nominal_hz, 1.0, 0.02, 0.30).with_asymmetric_gains(1.7, 0.045)
    }

    /// Current internal prediction (cycles).
    pub fn prediction(&self) -> f64 {
        self.prediction
    }
}

impl DvfsController for PidController {
    fn name(&self) -> &str {
        "pid"
    }

    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        if !self.started {
            // No history yet: be conservative and run at nominal.
            return Ok(Decision::overhead_free(self.dvfs.nominal(), None));
        }
        let choice = self
            .dvfs
            .choose(self.prediction, self.f_nominal_hz, ctx.deadline_s, 0.0);
        Ok(Decision::overhead_free(choice, Some(self.prediction)))
    }

    fn observe(&mut self, actual_cycles: u64) {
        let actual = actual_cycles as f64;
        if !self.started {
            self.started = true;
            self.prediction = actual;
            self.prev_error = 0.0;
            return;
        }
        let error = actual - self.prediction;
        self.integral += error;
        let derivative = error - self.prev_error;
        let kp = if error > 0.0 {
            self.kp_up
        } else {
            self.kp_down
        };
        self.prediction += kp * error + self.ki * self.integral + self.kd * derivative;
        self.prediction = self.prediction.max(0.0);
        self.prev_error = error;
    }
}

/// The paper's predictive controller: slice → model → minimal level.
///
/// The slice's output for job `ctx.index` comes from a borrowed
/// [`SliceTable`], so every scheme reading the same job set shares one
/// slice pass.
#[derive(Debug, Clone)]
pub struct PredictiveController<'p> {
    dvfs: DvfsModel,
    f_nominal_hz: f64,
    slices: &'p SliceTable,
    model: &'p ExecTimeModel,
    /// When true, slice and switching overheads are ignored (the
    /// "prediction w/o overhead" configuration of Fig. 13).
    pub ignore_overheads: bool,
}

impl<'p> PredictiveController<'p> {
    /// Creates the controller from the slice's runs over the job set
    /// (see [`crate::SlicePredictor::run_all`]) and the model.
    pub fn new(
        dvfs: DvfsModel,
        f_nominal_hz: f64,
        slices: &'p SliceTable,
        model: &'p ExecTimeModel,
    ) -> PredictiveController<'p> {
        PredictiveController {
            dvfs,
            f_nominal_hz,
            slices,
            model,
            ignore_overheads: false,
        }
    }
}

impl DvfsController for PredictiveController<'_> {
    fn name(&self) -> &str {
        "prediction"
    }

    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        let run = self.slices.get(ctx.index)?;
        let predicted = self.model.predict_cycles(&run.features);
        let (slice_cycles, slice_dp_active, slice_time_s) = if self.ignore_overheads {
            (0.0, Vec::new(), 0.0)
        } else {
            let t = run.cycles / self.f_nominal_hz;
            (run.cycles, run.dp_active.clone(), t)
        };
        let mut dvfs = self.dvfs.clone();
        if self.ignore_overheads {
            dvfs.switching = predvfs_power::SwitchingModel::free();
        }
        let choice = dvfs.choose(predicted, self.f_nominal_hz, ctx.deadline_s, slice_time_s);
        Ok(Decision {
            choice,
            slice_cycles,
            slice_dp_active,
            predicted_cycles: Some(predicted),
        })
    }
}

/// Omniscient controller: knows actual execution time, pays no overheads.
#[derive(Debug)]
pub struct OracleController {
    dvfs: DvfsModel,
    f_nominal_hz: f64,
    actual_cycles: Vec<u64>,
}

impl OracleController {
    /// Creates the oracle from per-job ground-truth cycles. The DVFS model
    /// is reconfigured to zero margin and free switching.
    pub fn new(
        mut dvfs: DvfsModel,
        f_nominal_hz: f64,
        actual_cycles: Vec<u64>,
    ) -> OracleController {
        dvfs.margin_frac = 0.0;
        dvfs.switching = predvfs_power::SwitchingModel::free();
        OracleController {
            dvfs,
            f_nominal_hz,
            actual_cycles,
        }
    }
}

impl DvfsController for OracleController {
    fn name(&self) -> &str {
        "oracle"
    }

    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        let actual = *self
            .actual_cycles
            .get(ctx.index)
            .ok_or(CoreError::OracleExhausted { index: ctx.index })?;
        let choice = self
            .dvfs
            .choose(actual as f64, self.f_nominal_hz, ctx.deadline_s, 0.0);
        Ok(Decision::overhead_free(choice, Some(actual as f64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_power::{AlphaPowerCurve, Ladder, SwitchingModel};

    fn dvfs() -> DvfsModel {
        let curve = AlphaPowerCurve::default();
        DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip())
    }

    fn job(tokens: usize) -> JobInput {
        let mut j = JobInput::new(1);
        for _ in 0..tokens {
            j.push(&[1]);
        }
        j
    }

    fn ctx(j: &JobInput) -> JobContext<'_> {
        JobContext {
            job: j,
            deadline_s: 16.7e-3,
            index: 0,
        }
    }

    #[test]
    fn baseline_always_nominal() {
        let mut c = BaselineController::new(dvfs());
        let j = job(3);
        let d = c.decide(&ctx(&j)).unwrap();
        assert_eq!(d.choice, c.dvfs.nominal());
        assert_eq!(d.slice_cycles, 0.0);
        assert_eq!(c.name(), "baseline");
    }

    #[test]
    fn table_uses_class_worst_case() {
        let jobs: Vec<JobInput> = vec![job(10), job(10), job(100), job(100)];
        let cycles = vec![1_000_000, 1_500_000, 3_000_000, 3_600_000];
        let mut t = TableController::from_profile(dvfs(), 250e6, &jobs, &cycles, 2);
        let small = job(8);
        let d = t.decide(&ctx(&small)).unwrap();
        assert_eq!(d.predicted_cycles, Some(1_500_000.0));
        let big = job(90);
        let d = t.decide(&ctx(&big)).unwrap();
        assert_eq!(d.predicted_cycles, Some(3_600_000.0));
    }

    #[test]
    fn table_worst_case_is_monotone() {
        let jobs: Vec<JobInput> = vec![job(10), job(100)];
        // Pathological profile: small job slower than big one.
        let cycles = vec![5_000_000, 1_000_000];
        let t = TableController::from_profile(dvfs(), 250e6, &jobs, &cycles, 2);
        assert!(t.worst_for(100) >= t.worst_for(10));
    }

    #[test]
    fn pid_reacts_asymmetrically() {
        let mut p = PidController::tuned(dvfs(), 250e6);
        let j = job(1);
        // Prime with a steady workload.
        for _ in 0..20 {
            let _ = p.decide(&ctx(&j)).unwrap();
            p.observe(1_000_000);
        }
        let before = p.prediction();
        assert!((before - 1_000_000.0).abs() < 80_000.0, "settled {before}");
        // The decision BEFORE the spike is based on stale history: the
        // spike job itself is mispredicted (Fig. 3's lag).
        assert!(p.prediction() < 1_500_000.0);
        // Step up: tuned gains catch up at once (and overshoot) so the
        // *next* job is safe...
        p.observe(2_000_000);
        assert!(
            p.prediction() >= 1_900_000.0,
            "up-reaction too slow: {}",
            p.prediction()
        );
        // ...while a step back down decays slowly (energy is wasted to
        // protect against misses).
        p.observe(1_000_000);
        assert!(
            p.prediction() > 1_400_000.0,
            "down-reaction should be sticky, got {}",
            p.prediction()
        );
    }

    #[test]
    fn symmetric_pid_lags_one_job() {
        let mut dv = dvfs();
        dv.margin_frac = 0.10;
        let mut p = PidController::new(dv, 250e6, 0.6, 0.02, 0.1);
        let j = job(1);
        for _ in 0..30 {
            let _ = p.decide(&ctx(&j)).unwrap();
            p.observe(1_000_000);
        }
        p.observe(2_000_000);
        let after_one = p.prediction();
        assert!(after_one < 2_000_000.0, "symmetric PID must lag");
        assert!(after_one > 1_000_000.0);
    }

    #[test]
    fn oracle_needs_a_trace_per_job() {
        let mut o = OracleController::new(dvfs(), 250e6, vec![1_000_000]);
        let j = job(1);
        assert!(o.decide(&ctx(&j)).is_ok());
        let c2 = JobContext {
            job: &j,
            deadline_s: 16.7e-3,
            index: 1,
        };
        assert!(matches!(
            o.decide(&c2),
            Err(CoreError::OracleExhausted { index: 1 })
        ));
    }

    #[test]
    fn oracle_picks_lowest_feasible_level() {
        let mut o = OracleController::new(dvfs(), 250e6, vec![500_000]);
        let j = job(1);
        let d = o.decide(&ctx(&j)).unwrap();
        // 2 ms of work in 16.7 ms: bottom level.
        assert_eq!(d.choice, LevelChoice::Regular(0));
    }
}
