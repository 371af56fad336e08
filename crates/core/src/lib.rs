//! # predvfs
//!
//! A reproduction of *"Execution Time Prediction for Energy-Efficient
//! Hardware Accelerators"* (Chen, Rucker, Suh — MICRO-48, 2015): a
//! framework that automatically generates execution-time predictors for
//! hardware accelerators and uses them to set per-job DVFS levels that
//! just meet real-time deadlines.
//!
//! The pipeline mirrors the paper's Fig. 6:
//!
//! 1. **Offline** — [`train::profile`] instruments the accelerator
//!    (FSM/counter mining from [`predvfs_rtl`]) and collects feature/time
//!    pairs; [`train::fit`] solves the asymmetric-Lasso program to get a
//!    sparse [`ExecTimeModel`]; [`SlicePredictor::generate`] slices the
//!    design down to the feature-computing hardware.
//! 2. **Online** — the slice runs once per job ([`SlicePredictor::run_all`]
//!    evaluates a job set into a [`SliceTable`]); a [`PredictiveController`]
//!    reads the job's entry, predicts execution time, and a [`DvfsModel`]
//!    picks the lowest operating point that meets the deadline (with
//!    optional boost).
//!
//! Baseline, table-based, PID, and oracle controllers are provided for
//! the paper's comparisons, plus HLS-flavored slices (§4.5) and software
//! predictors.
//!
//! # Examples
//!
//! ```
//! use predvfs::{
//!     train, DvfsController, DvfsModel, JobContext, PredictiveController,
//!     SliceFlavor, SlicePredictor, TrainerConfig,
//! };
//! use predvfs_accel::{sha, WorkloadSize};
//! use predvfs_power::{AlphaPowerCurve, Ladder, SwitchingModel};
//! use predvfs_rtl::SliceOptions;
//!
//! // Offline: train a predictor for the SHA accelerator.
//! let module = sha::build();
//! let jobs = sha::workloads(1, WorkloadSize::Quick);
//! let model = train::train(&module, &jobs.train, &TrainerConfig::default())?;
//! let slice = SlicePredictor::generate(
//!     &module, &model, SliceOptions::default(), SliceFlavor::Rtl)?;
//!
//! // Online: run the slice for the incoming job, then pick a DVFS level.
//! let runs = slice.run_all(&jobs.test[..1])?;
//! let curve = AlphaPowerCurve::default();
//! let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());
//! let mut ctrl = PredictiveController::new(dvfs, 500e6, &runs, &model);
//! let decision = ctrl.decide(&JobContext {
//!     job: &jobs.test[0],
//!     deadline_s: 16.7e-3,
//!     index: 0,
//! })?;
//! assert!(decision.predicted_cycles.unwrap() > 0.0);
//! # Ok::<(), predvfs::CoreError>(())
//! ```

#![warn(missing_docs)]

pub mod controllers;
pub mod dvfs;
pub mod error;
pub mod governors;
pub mod hybrid;
pub mod model;
pub mod online;
pub mod slicer;
pub mod software;
pub mod train;

pub use controllers::{
    BaselineController, Decision, DvfsController, JobContext, OracleController, PidController,
    PredictiveController, TableController,
};
pub use dvfs::{DvfsModel, LevelChoice};
pub use error::CoreError;
pub use governors::{IntervalGovernor, WcetController};
pub use hybrid::HybridController;
pub use model::ExecTimeModel;
pub use online::{
    AdaptState, AdaptiveController, CalibrationConfig, CalibrationMonitor, OnlineTrainer,
    OnlineTrainerConfig,
};
pub use slicer::{SliceFlavor, SlicePredictor, SliceRun, SliceRunner, SliceTable};
pub use software::{CpuModel, SoftwarePrediction, SoftwarePredictor};
pub use train::{TrainerConfig, TrainingData};
