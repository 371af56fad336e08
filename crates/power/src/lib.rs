//! # predvfs-power
//!
//! Voltage–frequency characterization, discrete DVFS operating-point
//! ladders, per-job energy models, and switching-overhead models — the
//! circuit/gate-level substrate of the MICRO'15 predictive-DVFS
//! reproduction (§4.1–§4.2 of the paper).
//!
//! # Examples
//!
//! ```
//! use predvfs_power::{AlphaPowerCurve, Ladder, VoltFreqCurve};
//!
//! let curve = AlphaPowerCurve::default();
//! let ladder = Ladder::asic(&curve).with_boost(&curve, 1.08);
//! // A job needing 61 % of nominal frequency rounds up to the next level.
//! let level = ladder.lowest_meeting(0.61).expect("feasible");
//! assert!(ladder.level(level).freq_ratio >= 0.61);
//! assert!(ladder.boost().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod ladder;
pub mod switch;
pub mod vf;

pub use energy::{EnergyModel, PowerParams};
pub use ladder::{Ladder, OperatingPoint};
pub use switch::SwitchingModel;
pub use vf::{AlphaPowerCurve, TableCurve, VoltFreqCurve};
