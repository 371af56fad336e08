//! # predvfs-sim
//!
//! The evaluation harness for the MICRO'15 predictive-DVFS reproduction:
//! the per-job control loop ([`runner`]), result accounting ([`metrics`]),
//! end-to-end benchmark experiments ([`experiment`]) prepared in memoized
//! layers ([`cache`]), parameter sweeps ([`sweep`]), and table/CSV
//! reporting ([`report`]).
//!
//! # Examples
//!
//! ```
//! use predvfs_sim::{Experiment, ExperimentConfig, Platform, Scheme};
//! use predvfs_accel::by_name;
//!
//! let bench = by_name("sha").expect("registered");
//! let exp = Experiment::prepare(bench, ExperimentConfig::quick(Platform::Asic))?;
//! let baseline = exp.run(Scheme::Baseline)?;
//! let prediction = exp.run(Scheme::Prediction)?;
//! assert!(prediction.total_energy_pj() < baseline.total_energy_pj());
//! # Ok::<(), predvfs::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod experiment;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod runner;
pub mod sweep;

pub use cache::{Design, LayerCounts, TableCell, TraceBundle, TraceCache};
pub use experiment::{Experiment, ExperimentConfig, Platform, Scheme, SliceOverheads};
pub use metrics::{JobRecord, SchemeResult};
pub use pipeline::{run_pipeline, PipelineResult, PipelineStage, SplitPolicy};
pub use report::Table;
pub use runner::{run_scheme, RunConfig};
pub use sweep::{average, deadline_sweep, SweepPoint};
