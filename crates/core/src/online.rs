//! Online model adaptation: drift detection, reactive fallback, and
//! warm-started refits (an extension beyond the paper).
//!
//! The paper trains the execution-time model exactly once, offline. A
//! deployed accelerator sees its input distribution move — a codec
//! switches profiles, a cache warms differently, silicon ages — and a
//! stale model silently under-predicts until every job misses. Online
//! frequency-scaling systems (Ilager et al.'s deadline-aware GPU scaling
//! being the closest published analogue) retrain the model on recent
//! observations instead.
//!
//! [`OnlineTrainer`] keeps a sliding window of `(features, actual cycles)`
//! observations and watches two drift signals over the most recent jobs:
//! the *under-prediction rate* (the error direction that causes deadline
//! misses) and the EWMA *residual ratio* actual/predicted — the same
//! signal shape [`crate::hybrid::HybridController`] corrects with. When
//! either trips its threshold the trainer declares the model degraded;
//! [`AdaptiveController`] then routes decisions through a tuned reactive
//! [`PidController`] (which needs no model) while observations accumulate,
//! and recovers by refitting the model on the post-drift window with a
//! FISTA solve **warm-started from the current coefficients**
//! ([`predvfs_opt::AsymLasso::fit_from`]) — drift is usually a scaling or
//! shift of the existing relation, so the warm start converges in a few
//! iterations where a cold start would take thousands.
//!
//! The refit is restricted to the offline-selected support: the hardware
//! slice only computes the features the offline Lasso selected, so those
//! are the only columns the window can observe. Support features that are
//! constant in the window keep their offline coefficients (their effect is
//! indistinguishable from the bias on that data); the rest are refit with
//! the paper's asymmetric squared loss, keeping the recovered model
//! conservative.

use std::collections::VecDeque;

use predvfs_opt::{AsymLasso, FitOptions, Matrix, Standardizer};

use crate::controllers::{Decision, DvfsController, JobContext, PidController};
use crate::dvfs::DvfsModel;
use crate::error::CoreError;
use crate::model::ExecTimeModel;
use crate::slicer::SliceTable;

/// Hyper-parameters of the online trainer.
#[derive(Debug, Clone, Copy)]
pub struct OnlineTrainerConfig {
    /// Sliding-window capacity (observations kept for refitting).
    pub window: usize,
    /// Number of most-recent jobs the drift detector looks at.
    pub detect_window: usize,
    /// Fraction of the detect window that must under-predict to declare
    /// drift (under-prediction = actual above predicted).
    pub underpred_threshold: f64,
    /// Slack band for the under-prediction flag: a job only counts as
    /// under-predicted when `actual > predicted·(1 + slack)`. Matches the
    /// predictive controller's deadline margin — an error the margin
    /// absorbs is not drift.
    pub underpred_slack: f64,
    /// EWMA residual-ratio level (actual/predicted) that declares drift on
    /// its own; catches slow inflation that never trips the rate test.
    pub ratio_threshold: f64,
    /// EWMA smoothing factor for the residual ratio.
    pub ewma_alpha: f64,
    /// Post-drift observations required before a refit is attempted.
    pub min_refit_samples: usize,
    /// Under-prediction penalty weight `α` of the refit (the offline
    /// trainer's conservative asymmetry).
    pub alpha: f64,
    /// Refit solver iteration cap.
    pub max_iter: usize,
}

impl Default for OnlineTrainerConfig {
    fn default() -> Self {
        OnlineTrainerConfig {
            window: 64,
            detect_window: 8,
            underpred_threshold: 0.5,
            underpred_slack: 0.05,
            ratio_threshold: 1.25,
            ewma_alpha: 0.2,
            min_refit_samples: 12,
            alpha: 8.0,
            max_iter: 2000,
        }
    }
}

/// Configuration of a [`CalibrationMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Rolling-window capacity (prediction/actual pairs kept).
    pub window: usize,
    /// Slack band for the under-prediction flag: a job counts as
    /// under-predicted only when `actual > predicted·(1 + slack)`.
    pub underpred_slack: f64,
    /// Coverage below this floor (with a full window) raises
    /// [`CalibrationMonitor::alert`].
    pub coverage_floor: f64,
    /// EWMA smoothing factor for the residual ratio.
    pub ewma_alpha: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        let t = OnlineTrainerConfig::default();
        CalibrationConfig {
            window: t.detect_window,
            underpred_slack: t.underpred_slack,
            coverage_floor: 1.0 - t.underpred_threshold,
            ewma_alpha: t.ewma_alpha,
        }
    }
}

/// Rolling-window prediction-quality monitor over `(predicted, actual)`
/// cycle pairs: under-prediction rate (the error direction that costs
/// deadline misses), its complement *coverage* (the fraction of jobs the
/// prediction covered within the slack band), mean absolute percentage
/// error, and the EWMA residual ratio actual/predicted.
///
/// [`OnlineTrainer`] owns one and derives its drift decision from the
/// same window, so the refit trigger and the exported calibration gauges
/// can never disagree about what the recent past looked like.
#[derive(Debug, Clone)]
pub struct CalibrationMonitor {
    config: CalibrationConfig,
    /// `(predicted, actual)` pairs, oldest first.
    pairs: VecDeque<(f64, f64)>,
    /// EWMA of actual/predicted.
    ratio: f64,
}

impl CalibrationMonitor {
    /// An empty monitor.
    pub fn new(config: CalibrationConfig) -> CalibrationMonitor {
        CalibrationMonitor {
            config: CalibrationConfig {
                window: config.window.max(1),
                ..config
            },
            pairs: VecDeque::new(),
            ratio: 1.0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// Records one completed job's raw prediction and measured cycles.
    pub fn record(&mut self, predicted: f64, actual: f64) {
        self.pairs.push_back((predicted, actual));
        while self.pairs.len() > self.config.window {
            self.pairs.pop_front();
        }
        if predicted > 0.0 {
            let a = self.config.ewma_alpha;
            self.ratio = (1.0 - a) * self.ratio + a * (actual / predicted);
        }
    }

    /// Pairs currently in the window.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pairs have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the window has filled to capacity.
    pub fn is_full(&self) -> bool {
        self.pairs.len() >= self.config.window
    }

    fn is_under(&self, predicted: f64, actual: f64) -> bool {
        actual > predicted * (1.0 + self.config.underpred_slack)
    }

    /// Fraction of windowed jobs whose actual exceeded the prediction by
    /// more than the slack band (0 when empty).
    pub fn under_rate(&self) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        let under = self
            .pairs
            .iter()
            .filter(|&&(p, a)| self.is_under(p, a))
            .count();
        under as f64 / self.pairs.len() as f64
    }

    /// Fraction of windowed jobs the prediction covered: `1 − under_rate`
    /// (1 when empty — no evidence of miscalibration).
    pub fn coverage(&self) -> f64 {
        1.0 - self.under_rate()
    }

    /// Mean absolute percentage error over the window (0 when empty;
    /// pairs with a non-positive actual are skipped).
    pub fn mape(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(p, a) in &self.pairs {
            if a > 0.0 {
                sum += (a - p).abs() / a;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// The EWMA residual-ratio estimate (actual / predicted).
    pub fn residual_ratio(&self) -> f64 {
        self.ratio
    }

    /// Length of the trailing run of under-predicting pairs — the
    /// observations that are definitely post-drift.
    pub fn trailing_under(&self) -> usize {
        self.pairs
            .iter()
            .rev()
            .take_while(|&&(p, a)| self.is_under(p, a))
            .count()
    }

    /// Whether coverage has fallen below the configured floor over a full
    /// window. Partial windows never alert — a single early
    /// under-prediction is not a calibration statement.
    pub fn alert(&self) -> bool {
        self.is_full() && self.coverage() < self.config.coverage_floor
    }

    /// Clears the window and resets the residual ratio (after a refit:
    /// the old pairs describe the replaced model).
    pub fn reset(&mut self) {
        self.pairs.clear();
        self.ratio = 1.0;
    }
}

/// Health of the online model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptState {
    /// Predictions track reality; the model drives decisions.
    Healthy,
    /// Drift detected; decisions fall back to the reactive controller
    /// until a refit lands.
    Degraded,
}

/// Sliding-window drift detector and warm-started refitter.
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
    config: OnlineTrainerConfig,
    /// `(features, actual cycles)` observations, oldest first.
    window: VecDeque<(Vec<f64>, f64)>,
    /// Prediction-quality monitor over the detect window; drift decisions
    /// are derived from it, so exported calibration gauges and the refit
    /// trigger always describe the same window.
    monitor: CalibrationMonitor,
    state: AdaptState,
    refits: usize,
    samples_since_drift: usize,
}

impl OnlineTrainer {
    /// Creates a trainer in the [`AdaptState::Healthy`] state.
    pub fn new(config: OnlineTrainerConfig) -> OnlineTrainer {
        OnlineTrainer {
            config,
            window: VecDeque::new(),
            monitor: CalibrationMonitor::new(CalibrationConfig {
                window: config.detect_window,
                underpred_slack: config.underpred_slack,
                coverage_floor: 1.0 - config.underpred_threshold,
                ewma_alpha: config.ewma_alpha,
            }),
            state: AdaptState::Healthy,
            refits: 0,
            samples_since_drift: 0,
        }
    }

    /// Current model-health state.
    pub fn state(&self) -> AdaptState {
        self.state
    }

    /// Number of refits installed so far.
    pub fn refits(&self) -> usize {
        self.refits
    }

    /// The EWMA residual-ratio estimate (actual / predicted).
    pub fn residual_ratio(&self) -> f64 {
        self.monitor.residual_ratio()
    }

    /// The prediction-quality monitor the drift decision is derived from.
    pub fn monitor(&self) -> &CalibrationMonitor {
        &self.monitor
    }

    /// Observations currently held in the sliding window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Records one completed job: the features the slice computed, the
    /// model's raw prediction, and the measured execution cycles. Updates
    /// the drift signals and may transition to [`AdaptState::Degraded`].
    pub fn record(&mut self, features: &[f64], predicted: f64, actual: f64) {
        self.window.push_back((features.to_vec(), actual));
        while self.window.len() > self.config.window {
            self.window.pop_front();
        }
        self.monitor.record(predicted, actual);
        match self.state {
            AdaptState::Healthy => {
                if self.drift_detected() {
                    self.state = AdaptState::Degraded;
                    // Pre-drift rows would poison the refit; keep only the
                    // trailing run of under-predicting observations — the
                    // ones that are definitely post-drift.
                    let trailing = self.monitor.trailing_under().max(1);
                    while self.window.len() > trailing {
                        self.window.pop_front();
                    }
                    self.samples_since_drift = self.window.len();
                }
            }
            AdaptState::Degraded => self.samples_since_drift += 1,
        }
    }

    fn drift_detected(&self) -> bool {
        if !self.monitor.is_full() {
            return false;
        }
        self.monitor.under_rate() >= self.config.underpred_threshold
            || self.monitor.residual_ratio() >= self.config.ratio_threshold
    }

    /// Attempts a recovery refit of `model` on the post-drift window.
    ///
    /// Returns the refit model once the trainer is degraded and enough
    /// post-drift samples have accumulated; `None` otherwise. On success
    /// the trainer returns to [`AdaptState::Healthy`] with its drift
    /// signals reset — if the refit is still wrong, the detector simply
    /// fires again and another (warm-started) refit follows, each one
    /// counted by [`OnlineTrainer::refits`].
    pub fn try_refit(&mut self, model: &ExecTimeModel) -> Option<ExecTimeModel> {
        if self.state != AdaptState::Degraded
            || self.samples_since_drift < self.config.min_refit_samples
        {
            return None;
        }
        match self.refit(model) {
            Some(refit) => {
                self.refits += 1;
                predvfs_obs::global().counter_add("predvfs_online_refits_total", 1);
                self.state = AdaptState::Healthy;
                self.monitor.reset();
                self.samples_since_drift = 0;
                Some(refit)
            }
            None => {
                // Degenerate window: stay on the fallback and wait for
                // another batch before trying again.
                self.samples_since_drift = 0;
                None
            }
        }
    }

    /// Warm-started asymmetric least-squares refit restricted to the
    /// model's support. Returns `None` when the window is unusable.
    fn refit(&self, model: &ExecTimeModel) -> Option<ExecTimeModel> {
        let n = self.window.len();
        if n == 0 {
            return None;
        }
        let bias = model.schema().bias_index().unwrap_or(0);
        let mut cols: Vec<usize> = model.selected().to_vec();
        if !cols.contains(&bias) {
            cols.push(bias);
            cols.sort_unstable();
        }
        let k = cols.len();
        let bias_j = cols.iter().position(|&c| c == bias).expect("bias kept");

        let mut w = Matrix::zeros(n, k);
        let mut y = Vec::with_capacity(n);
        for (r, (features, actual)) in self.window.iter().enumerate() {
            for (j, &c) in cols.iter().enumerate() {
                *w.get_mut(r, j) = features[c];
            }
            y.push(*actual);
        }

        // Support features constant in the window are indistinguishable
        // from the bias on this data: keep their offline coefficients,
        // subtract their (constant) contribution from the target, and fit
        // the rest.
        let mut frozen = vec![false; k];
        for j in 0..k {
            if j == bias_j {
                continue;
            }
            let first = w.get(0, j);
            if (1..n).all(|r| w.get(r, j) == first) {
                frozen[j] = true;
                let coeff = model.coeffs()[cols[j]];
                for (r, yr) in y.iter_mut().enumerate() {
                    *yr -= coeff * w.get(r, j);
                }
                for r in 0..n {
                    *w.get_mut(r, j) = 0.0;
                }
            }
        }

        let std = Standardizer::fit(&w);
        let xs = std.transform(&w);
        let y_scale = y.iter().map(|v: &f64| v.abs()).sum::<f64>() / n as f64;
        let y_scale = if y_scale > 0.0 { y_scale } else { 1.0 };
        let yn: Vec<f64> = y.iter().map(|v| v / y_scale).collect();

        // Map the current raw-space coefficients into the standardized,
        // target-normalized space (the inverse of `fold_back`) so FISTA
        // starts at — typically near — the pre-drift optimum.
        let mut beta0 = vec![0.0; k];
        let mut bias0 = model.coeffs()[bias];
        for j in 0..k {
            if j == bias_j || frozen[j] {
                continue;
            }
            let raw = model.coeffs()[cols[j]];
            beta0[j] = raw * std.scale(j);
            bias0 += raw * std.mean(j);
        }
        beta0[bias_j] = bias0;
        for b in &mut beta0 {
            *b /= y_scale;
        }

        let fit = AsymLasso {
            x: &xs,
            y: &yn,
            alpha: self.config.alpha,
            gamma: 0.0,
            unpenalized: vec![true; k],
        }
        .fit_from(
            &beta0,
            FitOptions {
                max_iter: self.config.max_iter,
                ..FitOptions::default()
            },
        );
        crate::train::record_solver_metrics(predvfs_obs::global(), &fit);

        let mut raw = std.fold_back(&fit.beta, bias_j);
        for c in &mut raw {
            *c *= y_scale;
        }
        if raw.iter().any(|c| !c.is_finite()) {
            return None;
        }
        let mut coeffs = model.coeffs().to_vec();
        for (j, &c) in cols.iter().enumerate() {
            if !frozen[j] {
                coeffs[c] = raw[j];
            }
        }
        Some(ExecTimeModel::new(model.schema().clone(), coeffs))
    }
}

/// Predictive controller with online adaptation: slice → model → minimal
/// level while healthy; reactive PID fallback while degraded; recovery by
/// warm-started refit.
///
/// Unlike [`crate::PredictiveController`] the model is *owned*, because
/// refits replace it mid-run; the slice's runs are borrowed from a
/// [`SliceTable`] like every slice-reading controller's. The slice runs on
/// every job even while degraded — the trainer needs its features to
/// refit — so slice overheads are always charged; the reactive fallback's
/// 10 % margin absorbs the slice time its level choice does not account
/// for.
#[derive(Debug, Clone)]
pub struct AdaptiveController<'p> {
    dvfs: DvfsModel,
    f_nominal_hz: f64,
    slices: &'p SliceTable,
    model: ExecTimeModel,
    fallback: PidController,
    trainer: OnlineTrainer,
    /// Features and raw model prediction of the job awaiting `observe`.
    pending: Option<(Vec<f64>, f64)>,
}

impl<'p> AdaptiveController<'p> {
    /// Creates the controller from the slice's runs over the job set, an
    /// owned (typically offline-trained) model, and the trainer
    /// configuration. The PID fallback uses the paper's tuned gains and
    /// 10 % margin.
    pub fn new(
        dvfs: DvfsModel,
        f_nominal_hz: f64,
        slices: &'p SliceTable,
        model: ExecTimeModel,
        config: OnlineTrainerConfig,
    ) -> AdaptiveController<'p> {
        let fallback = PidController::tuned(dvfs.clone(), f_nominal_hz);
        AdaptiveController {
            dvfs,
            f_nominal_hz,
            slices,
            model,
            fallback,
            trainer: OnlineTrainer::new(config),
            pending: None,
        }
    }

    /// The current (possibly refit) model.
    pub fn model(&self) -> &ExecTimeModel {
        &self.model
    }

    /// Number of refits installed so far.
    pub fn refits(&self) -> usize {
        self.trainer.refits()
    }

    /// Current model-health state.
    pub fn state(&self) -> AdaptState {
        self.trainer.state()
    }

    /// True while decisions come from the reactive fallback.
    pub fn is_degraded(&self) -> bool {
        self.trainer.state() == AdaptState::Degraded
    }

    /// The drift detector / refitter.
    pub fn trainer(&self) -> &OnlineTrainer {
        &self.trainer
    }
}

impl DvfsController for AdaptiveController<'_> {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        let run = self.slices.get(ctx.index)?;
        let predicted = self.model.predict_cycles(&run.features);
        let decision = if self.is_degraded() {
            // The reactive fallback picks the level; the slice still ran
            // (its features feed the refit), so its overheads are charged.
            let mut d = self.fallback.decide(ctx)?;
            d.slice_cycles = run.cycles;
            d.slice_dp_active = run.dp_active.clone();
            d
        } else {
            let slice_time_s = run.cycles / self.f_nominal_hz;
            let choice =
                self.dvfs
                    .choose(predicted, self.f_nominal_hz, ctx.deadline_s, slice_time_s);
            Decision {
                choice,
                slice_cycles: run.cycles,
                slice_dp_active: run.dp_active.clone(),
                predicted_cycles: Some(predicted),
            }
        };
        self.pending = Some((run.features.clone(), predicted));
        Ok(decision)
    }

    fn observe(&mut self, actual_cycles: u64) {
        // Keep the fallback's history warm at all times so it is ready the
        // moment drift is declared.
        self.fallback.observe(actual_cycles);
        if let Some((features, predicted)) = self.pending.take() {
            self.trainer
                .record(&features, predicted, actual_cycles as f64);
            if let Some(refit) = self.trainer.try_refit(&self.model) {
                self.model = refit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_rtl::builder::{ModuleBuilder, E};
    use predvfs_rtl::{Analysis, FeatureSchema};

    fn schema() -> FeatureSchema {
        let mut b = ModuleBuilder::new("t");
        let d = b.input("d", 8);
        let fsm = b.fsm("f", &["A", "W", "B"]);
        b.timed(&fsm, "A", "W", "B", d, E::one(), "c");
        b.done_when(fsm.in_state("B"));
        let m = b.build().unwrap();
        FeatureSchema::from_analysis(&m, &Analysis::run(&m))
    }

    /// A model `cycles = 200 + 3·x` over one selected feature.
    fn model_and_col(schema: &FeatureSchema) -> (ExecTimeModel, usize, usize) {
        let bias = schema.bias_index().unwrap_or(0);
        let col = (0..schema.len()).find(|&i| i != bias).expect("a feature");
        let mut coeffs = vec![0.0; schema.len()];
        coeffs[bias] = 200.0;
        coeffs[col] = 3.0;
        (ExecTimeModel::new(schema.clone(), coeffs), bias, col)
    }

    fn features(schema: &FeatureSchema, bias: usize, col: usize, v: f64) -> Vec<f64> {
        let mut f = vec![0.0; schema.len()];
        f[bias] = 1.0;
        f[col] = v;
        f
    }

    fn quick_config() -> OnlineTrainerConfig {
        OnlineTrainerConfig {
            window: 32,
            detect_window: 4,
            min_refit_samples: 6,
            ..OnlineTrainerConfig::default()
        }
    }

    #[test]
    fn calibration_monitor_tracks_rates_and_alerts() {
        let mut mon = CalibrationMonitor::new(CalibrationConfig {
            window: 4,
            underpred_slack: 0.05,
            coverage_floor: 0.5,
            ewma_alpha: 0.5,
        });
        assert!(mon.is_empty());
        assert_eq!(mon.coverage(), 1.0, "empty window is not miscalibrated");
        assert!(!mon.alert());
        // Two covered, one borderline (inside the slack band), one under.
        mon.record(100.0, 90.0);
        mon.record(100.0, 104.0);
        mon.record(100.0, 100.0);
        mon.record(100.0, 200.0);
        assert!(mon.is_full());
        assert!((mon.under_rate() - 0.25).abs() < 1e-12);
        assert!((mon.coverage() - 0.75).abs() < 1e-12);
        let want_mape = ((10.0 / 90.0) + (4.0 / 104.0) + 0.0 + (100.0 / 200.0)) / 4.0;
        assert!((mon.mape() - want_mape).abs() < 1e-12);
        assert_eq!(mon.trailing_under(), 1);
        assert!(!mon.alert(), "coverage 0.75 is above the 0.5 floor");
        // Two more under-predictions roll the covered pairs out.
        mon.record(100.0, 180.0);
        mon.record(100.0, 190.0);
        assert!((mon.under_rate() - 0.75).abs() < 1e-12);
        assert!(mon.alert(), "coverage 0.25 is below the 0.5 floor");
        assert!(mon.residual_ratio() > 1.0);
        assert_eq!(mon.trailing_under(), 3);
        mon.reset();
        assert!(mon.is_empty());
        assert_eq!(mon.residual_ratio(), 1.0);
        assert!(!mon.alert());
    }

    #[test]
    fn partial_window_never_alerts() {
        let mut mon = CalibrationMonitor::new(CalibrationConfig {
            window: 8,
            ..CalibrationConfig::default()
        });
        for _ in 0..7 {
            mon.record(100.0, 300.0);
        }
        assert_eq!(mon.coverage(), 0.0);
        assert!(
            !mon.alert(),
            "a partial window is not a calibration statement"
        );
        mon.record(100.0, 300.0);
        assert!(mon.alert());
    }

    #[test]
    fn trainer_drift_agrees_with_its_monitor() {
        let s = schema();
        let (model, bias, col) = model_and_col(&s);
        let mut tr = OnlineTrainer::new(quick_config());
        for i in 0..30 {
            let f = features(&s, bias, col, 10.0 + i as f64);
            let p = model.predict_cycles(&f);
            tr.record(&f, p, p * 2.0);
            // The shared window guarantees the exported calibration alert
            // and the refit trigger can never disagree: whenever the
            // trainer has degraded, the monitor is alerting (they read the
            // same pairs), and while the monitor stays quiet on a full
            // window the trainer stays healthy.
            if tr.state() == AdaptState::Degraded {
                assert!(
                    tr.monitor().alert(),
                    "degraded trainer with a quiet monitor"
                );
                return;
            }
            if tr.monitor().is_full() {
                assert!(
                    !tr.monitor().alert() || tr.state() == AdaptState::Degraded,
                    "alerting monitor with a healthy trainer"
                );
            }
        }
        panic!("sustained 2x under-prediction never degraded the trainer");
    }

    #[test]
    fn healthy_model_never_trips_the_detector() {
        let s = schema();
        let (model, bias, col) = model_and_col(&s);
        let mut tr = OnlineTrainer::new(quick_config());
        for i in 0..30 {
            let f = features(&s, bias, col, 10.0 + i as f64);
            let p = model.predict_cycles(&f);
            // The offline fit is conservative: actual runs a bit below.
            tr.record(&f, p, p * 0.97);
        }
        assert_eq!(tr.state(), AdaptState::Healthy);
        assert_eq!(tr.refits(), 0);
        assert!(tr.residual_ratio() < 1.0);
        assert!(tr.try_refit(&model).is_none());
    }

    #[test]
    fn underprediction_rate_trips_and_warm_refit_recovers() {
        let s = schema();
        let (model, bias, col) = model_and_col(&s);
        let mut tr = OnlineTrainer::new(quick_config());
        // Healthy phase.
        for i in 0..10 {
            let f = features(&s, bias, col, 20.0 + i as f64);
            let p = model.predict_cycles(&f);
            tr.record(&f, p, p * 0.97);
        }
        // Drift: everything suddenly takes 1.5x as long. Predictions come
        // from whatever model is currently installed, as in the controller.
        let scale = 1.5;
        let mut current = model.clone();
        for i in 0..40 {
            let f = features(&s, bias, col, 15.0 + 2.0 * i as f64);
            let p = current.predict_cycles(&f);
            tr.record(&f, p, model.predict_cycles(&f) * scale);
            if let Some(m) = tr.try_refit(&current) {
                current = m;
            }
        }
        assert_eq!(tr.refits(), 1, "exactly one refit should have landed");
        assert_eq!(tr.state(), AdaptState::Healthy);
        // The refit must track the drifted relation on held-out inputs.
        for v in [11.0, 42.0, 97.0] {
            let f = features(&s, bias, col, v);
            let want = model.predict_cycles(&f) * scale;
            let got = current.predict_cycles(&f);
            assert!(
                (got - want).abs() / want < 0.02,
                "x={v}: refit {got:.1} vs drifted truth {want:.1}"
            );
        }
    }

    #[test]
    fn residual_ratio_alone_can_trip() {
        let s = schema();
        let (model, bias, col) = model_and_col(&s);
        let mut tr = OnlineTrainer::new(OnlineTrainerConfig {
            underpred_threshold: 2.0, // unreachable: rate can be at most 1
            ratio_threshold: 1.2,
            ..quick_config()
        });
        for i in 0..30 {
            let f = features(&s, bias, col, 10.0 + i as f64);
            let p = model.predict_cycles(&f);
            tr.record(&f, p, p * 1.5);
            if tr.state() == AdaptState::Degraded {
                return;
            }
        }
        panic!(
            "residual ratio {} never crossed the threshold",
            tr.residual_ratio()
        );
    }

    #[test]
    fn detection_drops_pre_drift_window_rows() {
        let s = schema();
        let (model, bias, col) = model_and_col(&s);
        // Disable the ratio signal and require a full window of
        // under-predictions so detection lands exactly when the detect
        // window fills with drifted rows.
        let cfg = OnlineTrainerConfig {
            ratio_threshold: f64::INFINITY,
            underpred_threshold: 1.0,
            ..quick_config()
        };
        let mut tr = OnlineTrainer::new(cfg);
        for i in 0..20 {
            let f = features(&s, bias, col, 10.0 + i as f64);
            let p = model.predict_cycles(&f);
            tr.record(&f, p, p * 0.97);
        }
        assert_eq!(tr.window_len(), 20);
        for i in 0..cfg.detect_window {
            let f = features(&s, bias, col, 50.0 + i as f64);
            let p = model.predict_cycles(&f);
            tr.record(&f, p, p * 2.0);
        }
        assert_eq!(tr.state(), AdaptState::Degraded);
        assert_eq!(
            tr.window_len(),
            cfg.detect_window,
            "stale pre-drift observations must not survive into the refit"
        );
    }

    /// The full `is_degraded` hysteresis arc at the controller surface:
    /// healthy → drift engages the PID fallback → a consistent drifted
    /// relation accumulates, the refit lands and clears the fallback →
    /// the recovered model stays healthy on the new relation. The
    /// trainer-level tests above pin the detector; this one pins the
    /// *controller* wiring (decide/observe round-trips, fallback
    /// engagement, model swap).
    #[test]
    fn adaptive_controller_degrade_refit_recover_arc() {
        use crate::slicer::{SliceFlavor, SlicePredictor};
        use crate::train::{train, TrainerConfig};
        use predvfs_accel::{djpeg, WorkloadSize};
        use predvfs_power::{AlphaPowerCurve, Ladder, SwitchingModel};
        use predvfs_rtl::SliceOptions;

        let m = djpeg::build();
        let w = djpeg::workloads(31, WorkloadSize::Quick);
        let offline = train(&m, &w.train, &TrainerConfig::default()).unwrap();
        let sp = SlicePredictor::generate(&m, &offline, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let curve = AlphaPowerCurve::default();
        let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());
        let table = sp.run_all(&w.test).unwrap();
        let mut ctrl =
            AdaptiveController::new(dvfs, 250e6, &table, offline.clone(), quick_config());
        let runner = sp.runner();
        let scale = 1.6;
        let mut served = 0usize;
        let mut step = |ctrl: &mut AdaptiveController<'_>, actual_scale: f64| {
            // Cycle through the test set: job `index` is its table entry.
            let index = served % w.test.len();
            let job = &w.test[index];
            let raw = offline.predict_cycles(&runner.run(job).unwrap().features);
            ctrl.decide(&JobContext {
                job,
                deadline_s: 16.7e-3,
                index,
            })
            .unwrap();
            ctrl.observe((raw * actual_scale).round().max(1.0) as u64);
            served += 1;
        };

        // Phase 1 — healthy: actuals sit a touch under the offline fit.
        for _ in 0..8 {
            step(&mut ctrl, 0.97);
            assert!(
                !ctrl.is_degraded(),
                "conservative actuals must not trip the detector"
            );
        }
        assert_eq!(ctrl.refits(), 0);

        // Phase 2 — drift: every job now takes 1.6x the offline relation.
        let mut engaged = false;
        for _ in 0..64 {
            step(&mut ctrl, scale);
            if ctrl.is_degraded() {
                engaged = true;
                break;
            }
        }
        assert!(
            engaged,
            "sustained under-prediction must engage the fallback"
        );
        assert_eq!(ctrl.state(), AdaptState::Degraded);
        assert_eq!(ctrl.refits(), 0, "fallback engages before any refit lands");

        // Phase 3 — keep serving the drifted relation from inside the
        // fallback until the warm refit lands and clears it.
        let mut cleared = false;
        for _ in 0..64 {
            step(&mut ctrl, scale);
            if !ctrl.is_degraded() {
                cleared = true;
                break;
            }
        }
        assert!(
            cleared,
            "a consistent drifted relation must refit and recover"
        );
        assert_eq!(ctrl.refits(), 1, "recovery comes from exactly one refit");

        // The recovered model tracks the drifted relation on held-out jobs.
        for job in w.test.iter().take(5) {
            let f = runner.run(job).unwrap().features;
            let want = offline.predict_cycles(&f) * scale;
            let got = ctrl.model().predict_cycles(&f);
            assert!(
                (got - want).abs() / want < 0.05,
                "refit {got:.1} vs drifted truth {want:.1}"
            );
        }

        // Hysteresis: the refit model stays healthy on the new relation —
        // no flapping back into the fallback.
        for _ in 0..8 {
            step(&mut ctrl, scale);
            assert!(
                !ctrl.is_degraded(),
                "recovered controller must not re-trip on the relation it refit to"
            );
        }
        assert_eq!(ctrl.refits(), 1);
    }
}
