//! # predvfs-rtl
//!
//! An RTL-like substrate for modelling hardware accelerators, built for the
//! reproduction of *"Execution Time Prediction for Energy-Efficient
//! Hardware Accelerators"* (MICRO-48, 2015).
//!
//! Accelerators are described as FSMD designs — registers with guarded
//! synchronous update rules, finite state machines, counters, and annotated
//! datapath blocks — using the [`builder`] DSL. Everything the paper's
//! offline flow does to real RTL is then performed automatically on that
//! representation:
//!
//! * [`analysis`] mines the design for FSMs, counters, and wait states;
//! * [`instrument`] derives the feature schema (STC/IC/AIV/APV) and the
//!   runtime probes;
//! * [`vm`] compiles modules to flattened bytecode and executes jobs
//!   cycle-accurately, with exact fast-forwarding over wait states — the
//!   one engine every production path runs;
//! * [`interp`] is the tree-walking reference interpreter, kept only as
//!   the differential-testing oracle the VM must match byte for byte;
//! * [`slice()`] derives the minimal feature-computing hardware slice;
//! * [`area`] prices designs in ASIC area and FPGA resources.
//!
//! # Examples
//!
//! ```
//! use predvfs_rtl::builder::{ModuleBuilder, E};
//! use predvfs_rtl::{CompiledSim, ExecMode, JobInput};
//!
//! // A toy accelerator: each token costs `dur` cycles of compute.
//! let mut b = ModuleBuilder::new("toy");
//! let dur = b.input("dur", 16);
//! let fsm = b.fsm("ctrl", &["FETCH", "RUN", "EMIT"]);
//! b.timed(&fsm, "FETCH", "RUN", "EMIT", dur, E::stream_empty().is_zero(), "cnt");
//! b.trans(&fsm, "EMIT", "FETCH", E::one());
//! b.advance_when(fsm.in_state("EMIT"));
//! b.done_when(fsm.in_state("FETCH") & E::stream_empty());
//! let module = b.build()?;
//!
//! let mut job = JobInput::new(1);
//! job.push(&[40]);
//! let trace = CompiledSim::new(&module)?.run(&job, ExecMode::FastForward, None)?;
//! assert!(trace.cycles > 40);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod area;
pub mod builder;
mod compile;
pub mod error;
pub mod expr;
pub mod format;
pub mod instrument;
pub mod interp;
pub mod module;
pub mod slice;
pub mod vm;
pub mod wcet;

pub use analysis::Analysis;
pub use area::{AreaBreakdown, AsicAreaModel, FpgaResourceModel, FpgaResources};
pub use builder::{ModuleBuilder, E};
pub use error::RtlError;
pub use format::{from_text, to_text, ParseError};
pub use instrument::{FeatureDesc, FeatureKind, FeatureSchema, ProbeProgram};
pub use interp::{ExecMode, JobInput, JobTrace, Simulator};
pub use module::{Datapath, DatapathKind, InputId, Memory, Module, RegId, Register};
pub use slice::{slice, SliceOptions, SliceReport};
pub use vm::{CompiledSim, ProbedSim};
pub use wcet::{wcet, WcetBound};

/// The RTL engine under its earlier name.
pub type AnySim = CompiledSim;
