//! # predvfs-serve
//!
//! A deterministic multi-stream DVFS *service* runtime on top of the
//! batch evaluation pipeline: N independent accelerator streams (each a
//! benchmark, an arrival process, and a deadline) submit jobs into
//! bounded per-stream admission queues, a virtual clock advances over
//! arrival / slice-done / level-switch / job-done events, and each stream
//! applies per-job predictive DVFS using the `predvfs` controllers —
//! including the online-adaptive controller that detects model drift,
//! falls back to reactive PID control, and recovers with warm-started
//! refits.
//!
//! Where the batch runner answers *"how much energy does this controller
//! save over a recorded job set?"*, this crate answers the service-level
//! questions: what happens under queueing and backpressure (shed vs.
//! deadline-relax), and what happens when the workload distribution
//! shifts mid-run.
//!
//! ```no_run
//! use predvfs_serve::{Scenario, ServeRuntime};
//! use predvfs_sim::TraceCache;
//!
//! let scenario = Scenario::demo();
//! let runtime = ServeRuntime::prepare(&scenario, &TraceCache::new())?;
//! let result = runtime.run()?;
//! for s in &result.streams {
//!     println!("{}: {} done, {:.1}% missed, {} shed", s.name, s.completed(),
//!              s.miss_pct(), s.shed);
//! }
//! # Ok::<(), predvfs_serve::ServeError>(())
//! ```
//!
//! The engine is deliberately serial: determinism is the contract (the
//! `serve_determinism` integration test pins it), and parallelism lives
//! in the preparation phase, which fans out per-class training/slicing
//! with [`predvfs_par`] and deduplicates trace simulation through the
//! shared [`predvfs_sim::TraceCache`], and in the warm-up before the
//! loop, which runs each class's slice over the test jobs its streams
//! submit in one fan-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod queue;
mod scenario;
mod slo;

pub use engine::{
    BoostRequest, EngineCheckpoint, EngineConfig, MigratedStream, ServeRecord, ServeResult,
    ServeRuntime, ShardEngine, ShardLoad, StreamResult,
};
pub use scenario::{
    ControllerKind, DriftSpec, FaultsSpec, OverloadPolicy, Scenario, ServeError, StreamSpec,
};
pub use slo::{SloConfig, SloTracker};
