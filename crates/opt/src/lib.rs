//! # predvfs-opt
//!
//! Dense linear algebra, the FISTA solver for the paper's asymmetric-Lasso
//! execution-time model (§3.4), column standardization, and the summary
//! statistics used by the evaluation harness.
//!
//! The training objective is
//! `‖pos(Xβ−y)‖² + α‖neg(Xβ−y)‖² + γ‖β‖₁`: a convex program whose L1 term
//! performs feature selection (Lasso) and whose asymmetric quadratic term
//! makes the model conservative — under-predicting execution time causes
//! deadline misses, so it is penalized `α`× harder.
//!
//! # Examples
//!
//! ```
//! use predvfs_opt::{AsymLasso, FitOptions, Matrix};
//!
//! // y = 2*x with a constant-1 bias column.
//! let x = Matrix::from_rows(3, 2, vec![1.0, 1.0, 1.0, 2.0, 1.0, 3.0]);
//! let y = vec![2.0, 4.0, 6.0];
//! let fit = AsymLasso {
//!     x: &x,
//!     y: &y,
//!     alpha: 2.0,
//!     gamma: 0.0,
//!     unpenalized: vec![true, false],
//! }
//! .fit(FitOptions::default());
//! assert!((fit.beta[1] - 2.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod solver;
pub mod standardize;
pub mod stats;

pub use matrix::{dot, norm2, Matrix};
pub use solver::{
    convergence_check, soft_threshold, AsymLasso, CheckOutcome, FitOptions, FitResult,
};
pub use standardize::Standardizer;
pub use stats::{mean, quantile, BoxStats};
