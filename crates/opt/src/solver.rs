//! FISTA solver for the paper's asymmetric-Lasso objective (§3.4):
//!
//! ```text
//! minimize over β:   ‖pos(Xβ − y)‖² + α·‖neg(Xβ − y)‖² + γ·‖β‖₁
//! ```
//!
//! with `pos(x) = max(x, 0)`, `neg(x) = max(−x, 0)`, `α > 1` weighting
//! *under*-predictions (which cause deadline misses) more heavily than
//! over-predictions, and the L1 term driving feature selection.
//!
//! The smooth part is convex with an `L = 2·max(1, α)·λmax(XᵀX)`-Lipschitz
//! gradient, so proximal gradient descent with Nesterov acceleration
//! (FISTA) converges at `O(1/k²)`; the proximal operator of the L1 term is
//! soft thresholding. The bias column is conventionally exempt from the
//! penalty.
//!
//! The iterations run on the *live* columns only. While the residuals
//! are finite, a column that is all zero in `X` (the trainer zeroes
//! constants and duplicates) and starts at exactly `+0.0` gets a `+0.0`
//! gradient and a `0.0` proximal step on every iteration, so it stays
//! `0.0`; leaving it out of every mat-vec changes no bit of the iterates.
//! `L` is still estimated on the full matrix, so the step size, and with
//! it every iterate, restart and iteration count, is the dense solve's.

use crate::matrix::Matrix;

/// The asymmetric-Lasso training problem.
#[derive(Debug, Clone)]
pub struct AsymLasso<'a> {
    /// Design matrix (rows = jobs, cols = features, standardized).
    pub x: &'a Matrix,
    /// Target vector (execution cycles).
    pub y: &'a [f64],
    /// Under-prediction penalty weight (`α ≥ 1`; the paper uses `α > 1`).
    pub alpha: f64,
    /// L1 penalty weight (`γ ≥ 0`).
    pub gamma: f64,
    /// Per-column L1 exemption (true = not penalized, e.g. the bias).
    pub unpenalized: Vec<bool>,
}

/// Iteration controls.
#[derive(Debug, Clone, Copy)]
pub struct FitOptions {
    /// Maximum FISTA iterations.
    pub max_iter: usize,
    /// Relative objective-change tolerance for convergence.
    pub tol: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            max_iter: 4000,
            tol: 1e-9,
        }
    }
}

/// A fitted model in the (standardized) design space.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// Coefficients.
    pub beta: Vec<f64>,
    /// Final objective value.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Momentum restarts triggered by objective increases.
    pub restarts: usize,
    /// Whether the tolerance was met before `max_iter`.
    pub converged: bool,
}

impl FitResult {
    /// Indices of coefficients with magnitude above `threshold`.
    pub fn support(&self, threshold: f64) -> Vec<usize> {
        self.beta
            .iter()
            .enumerate()
            .filter(|(_, b)| b.abs() > threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

impl AsymLasso<'_> {
    /// Evaluates the full objective at `beta`.
    pub fn objective(&self, beta: &[f64]) -> f64 {
        self.objective_into(beta, &mut vec![0.0; self.x.rows()])
    }

    /// [`AsymLasso::objective`], with `r` as the residual scratch buffer.
    fn objective_into(&self, beta: &[f64], r: &mut [f64]) -> f64 {
        self.x.matvec(beta, r);
        let mut smooth = 0.0;
        for (ri, yi) in r.iter().zip(self.y) {
            let e = ri - yi;
            if e > 0.0 {
                smooth += e * e;
            } else {
                smooth += self.alpha * e * e;
            }
        }
        let l1: f64 = beta
            .iter()
            .zip(&self.unpenalized)
            .filter(|(_, u)| !**u)
            .map(|(b, _)| b.abs())
            .sum();
        smooth + self.gamma * l1
    }

    /// Gradient of the smooth part at `beta`, written into `grad`.
    fn smooth_grad(&self, beta: &[f64], resid: &mut [f64], grad: &mut [f64]) {
        self.x.matvec(beta, resid);
        for (ri, yi) in resid.iter_mut().zip(self.y) {
            let e = *ri - yi;
            *ri = if e > 0.0 {
                2.0 * e
            } else {
                2.0 * self.alpha * e
            };
        }
        self.x.matvec_t(resid, grad);
    }

    /// Solves the problem with FISTA from a cold (all-zero) start.
    ///
    /// # Panics
    ///
    /// Panics if `y` length mismatches `x`, `alpha < 1`, or `gamma < 0`.
    pub fn fit(&self, options: FitOptions) -> FitResult {
        self.fit_from(&vec![0.0; self.x.cols()], options)
    }

    /// Solves the problem with FISTA, warm-started at `beta0`.
    ///
    /// A warm start near the optimum (e.g. the previous fit of a slowly
    /// drifting problem) converges in a handful of iterations instead of
    /// thousands; starting from all zeros is exactly [`AsymLasso::fit`].
    ///
    /// The loop multiplies through the live columns only: a column that
    /// is all zero in `x` and starts at `+0.0` is left out and returned
    /// as `0.0`, bit-identical to the dense solve (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `beta0` or `y` length mismatches `x`, `alpha < 1`, or
    /// `gamma < 0`.
    pub fn fit_from(&self, beta0: &[f64], options: FitOptions) -> FitResult {
        let _span = predvfs_obs::span("opt.fista_fit");
        assert_eq!(self.y.len(), self.x.rows(), "target length mismatch");
        assert_eq!(self.unpenalized.len(), self.x.cols());
        assert_eq!(beta0.len(), self.x.cols(), "warm-start width mismatch");
        assert!(self.alpha >= 1.0, "alpha must be >= 1");
        assert!(self.gamma >= 0.0, "gamma must be >= 0");
        let p = self.x.cols();
        let lipschitz = (2.0 * self.alpha.max(1.0) * self.x.gram_spectral_norm(60)).max(1e-12);
        let step = 1.0 / lipschitz;

        // A dead column (all zero, starting at +0.0) stays +0.0; a
        // warm start of -0.0 keeps its column live, since the dense
        // iteration can return that sign.
        let mut live: Vec<bool> = beta0.iter().map(|b| b.to_bits() != 0).collect();
        for r in 0..self.x.rows() {
            for (l, &v) in live.iter_mut().zip(self.x.row(r)) {
                *l |= v != 0.0;
            }
        }
        let live: Vec<usize> = (0..p).filter(|&j| live[j]).collect();
        if live.len() == p {
            // Nothing to leave out: skip the copy of `x`.
            return self.fista(beta0, step, options);
        }
        let x = self.x.select_columns(&live);
        let reduced = AsymLasso {
            x: &x,
            y: self.y,
            alpha: self.alpha,
            gamma: self.gamma,
            unpenalized: live.iter().map(|&j| self.unpenalized[j]).collect(),
        };
        let beta0: Vec<f64> = live.iter().map(|&j| beta0[j]).collect();
        let fit = reduced.fista(&beta0, step, options);
        let mut beta = vec![0.0; p];
        for (&j, &b) in live.iter().zip(&fit.beta) {
            beta[j] = b;
        }
        FitResult { beta, ..fit }
    }

    /// The FISTA loop with a fixed `step`, warm-started at `beta0`.
    fn fista(&self, beta0: &[f64], step: f64, options: FitOptions) -> FitResult {
        let p = self.x.cols();
        let mut beta = beta0.to_vec();
        let mut beta_prev = vec![0.0; p];
        let mut theta = beta0.to_vec();
        let mut grad = vec![0.0; p];
        let mut resid = vec![0.0; self.x.rows()];
        let mut t = 1.0f64;
        let mut prev_obj = self.objective_into(&beta, &mut resid);
        let mut iterations = 0;
        let mut restarts = 0;
        let mut converged = false;

        for it in 0..options.max_iter {
            // Per-iteration span: one relaxed load when profiling is off;
            // when on, it prices the gradient + prox + momentum body.
            let _iter_span = predvfs_obs::span("opt.fista_fit.iteration");
            iterations = it + 1;
            self.smooth_grad(&theta, &mut resid, &mut grad);
            beta_prev.copy_from_slice(&beta);
            for j in 0..p {
                let z = theta[j] - step * grad[j];
                beta[j] = if self.unpenalized[j] {
                    z
                } else {
                    soft_threshold(z, self.gamma * step)
                };
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let momentum = (t - 1.0) / t_next;
            for j in 0..p {
                theta[j] = beta[j] + momentum * (beta[j] - beta_prev[j]);
            }
            t = t_next;

            if it % 10 == 9 {
                let obj = self.objective_into(&beta, &mut resid);
                match convergence_check(prev_obj, obj, options.tol) {
                    // FISTA is not monotone; restart momentum on an
                    // increase and keep iterating — an overshoot within
                    // tolerance is not convergence.
                    CheckOutcome::Restart => {
                        theta.copy_from_slice(&beta);
                        t = 1.0;
                        restarts += 1;
                    }
                    CheckOutcome::Converged => {
                        converged = true;
                        break;
                    }
                    CheckOutcome::Continue => {}
                }
                prev_obj = obj;
            }
        }
        FitResult {
            // Evaluate at the returned coefficients: the periodic sample
            // lags beta by up to 9 iterations when max_iter exits.
            objective: self.objective_into(&beta, &mut resid),
            beta,
            iterations,
            restarts,
            converged,
        }
    }
}

/// Outcome of the solver's periodic objective check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Objective increased: restart momentum and keep iterating.
    Restart,
    /// Relative change fell below tolerance: stop.
    Converged,
    /// Keep iterating.
    Continue,
}

/// Classifies one periodic objective sample against the previous one.
///
/// An increase is always [`CheckOutcome::Restart`], never
/// [`CheckOutcome::Converged`], even when its magnitude is within
/// tolerance: the increase means the momentum sequence overshot, and the
/// restarted iterations that follow can still make progress.
pub fn convergence_check(prev_obj: f64, obj: f64, tol: f64) -> CheckOutcome {
    if obj > prev_obj {
        return CheckOutcome::Restart;
    }
    let denom = prev_obj.abs().max(1e-12);
    if (prev_obj - obj).abs() / denom < tol {
        CheckOutcome::Converged
    } else {
        CheckOutcome::Continue
    }
}

/// The scalar soft-thresholding operator `prox_{t|·|}`.
#[inline]
pub fn soft_threshold(z: f64, t: f64) -> f64 {
    if z > t {
        z - t
    } else if z < -t {
        z + t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;

    fn design(n: usize) -> (Matrix, Vec<f64>) {
        // y = 5 + 3*x1 + 0*x2, x1 = i, x2 = alternating noise feature.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let x1 = i as f64;
            let x2 = if i % 2 == 0 { 1.0 } else { -1.0 };
            rows.push(vec![1.0, x1, x2]);
            y.push(5.0 + 3.0 * x1);
        }
        let m = Matrix::from_row_iter(3, rows.iter().map(|r| r.as_slice()));
        (m, y)
    }

    fn unpenalized_bias(p: usize) -> Vec<bool> {
        let mut u = vec![false; p];
        u[0] = true;
        u
    }

    #[test]
    fn recovers_exact_linear_relation() {
        let (x, y) = design(50);
        let prob = AsymLasso {
            x: &x,
            y: &y,
            alpha: 1.0,
            gamma: 0.0,
            unpenalized: unpenalized_bias(3),
        };
        let fit = prob.fit(FitOptions::default());
        assert!((fit.beta[0] - 5.0).abs() < 1e-3, "bias {}", fit.beta[0]);
        assert!((fit.beta[1] - 3.0).abs() < 1e-4, "slope {}", fit.beta[1]);
        assert!(fit.beta[2].abs() < 1e-3);
    }

    #[test]
    fn lasso_zeroes_irrelevant_feature() {
        let (x, y) = design(50);
        let prob = AsymLasso {
            x: &x,
            y: &y,
            alpha: 1.0,
            gamma: 50.0,
            unpenalized: unpenalized_bias(3),
        };
        let fit = prob.fit(FitOptions::default());
        assert_eq!(fit.beta[2], 0.0, "noise feature must be selected out");
        assert!(fit.beta[1] > 2.5);
        assert_eq!(fit.support(1e-9), vec![0, 1]);
    }

    #[test]
    fn asymmetry_biases_towards_over_prediction() {
        // Two identical rows with conflicting targets: symmetric loss picks
        // the mean; heavy under-prediction penalty pulls toward the max.
        let x = Matrix::from_rows(2, 1, vec![1.0, 1.0]);
        let y = vec![0.0, 10.0];
        let sym = AsymLasso {
            x: &x,
            y: &y,
            alpha: 1.0,
            gamma: 0.0,
            unpenalized: vec![true],
        };
        let asym = AsymLasso {
            x: &x,
            y: &y,
            alpha: 25.0,
            gamma: 0.0,
            unpenalized: vec![true],
        };
        let b_sym = sym.fit(FitOptions::default()).beta[0];
        let b_asym = asym.fit(FitOptions::default()).beta[0];
        assert!((b_sym - 5.0).abs() < 1e-3, "symmetric mean, got {b_sym}");
        // Optimum of e² + α(10−e)² is 10α/(1+α) ≈ 9.615 for α=25.
        assert!(b_asym > 9.0, "asymmetric fit {b_asym} must approach max");
    }

    #[test]
    fn objective_decreases() {
        let (x, y) = design(30);
        let prob = AsymLasso {
            x: &x,
            y: &y,
            alpha: 4.0,
            gamma: 1.0,
            unpenalized: unpenalized_bias(3),
        };
        let start = prob.objective(&[0.0, 0.0, 0.0]);
        let fit = prob.fit(FitOptions::default());
        assert!(fit.objective < start);
        // Restarts only happen at the periodic check (every 10 iters).
        assert!(fit.restarts <= fit.iterations / 10 + 1);
        assert!(
            fit.converged,
            "did not converge in {} iters",
            fit.iterations
        );
    }

    #[test]
    fn fitted_model_predicts_training_rows() {
        let (x, y) = design(40);
        let prob = AsymLasso {
            x: &x,
            y: &y,
            alpha: 2.0,
            gamma: 0.001,
            unpenalized: unpenalized_bias(3),
        };
        let fit = prob.fit(FitOptions::default());
        for (r, yr) in y.iter().enumerate() {
            let p = dot(x.row(r), &fit.beta);
            assert!((p - yr).abs() < 0.2, "row {r}: {p} vs {yr}");
        }
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.0, 2.0), 0.0);
        assert_eq!(soft_threshold(-1.0, 2.0), 0.0);
    }

    #[test]
    fn restart_is_never_converged() {
        // Regression: an objective *increase* within tolerance used to
        // pass the convergence test on the same iteration that triggered
        // a momentum restart, declaring a divergent step "converged".
        assert_eq!(
            convergence_check(1.0, 1.0 + 1e-12, 1e-9),
            CheckOutcome::Restart
        );
        assert_eq!(convergence_check(1.0, 2.0, 1e-9), CheckOutcome::Restart);
        // Decreases classify by relative change as before.
        assert_eq!(
            convergence_check(1.0, 1.0 - 1e-12, 1e-9),
            CheckOutcome::Converged
        );
        assert_eq!(convergence_check(1.0, 0.5, 1e-9), CheckOutcome::Continue);
        // Zero-objective fixed point is converged, not a restart.
        assert_eq!(convergence_check(0.0, 0.0, 1e-9), CheckOutcome::Converged);
    }

    #[test]
    fn reported_objective_matches_returned_beta() {
        // Regression: at max_iter exit, `objective` was the periodic
        // sample, lagging `beta` by up to 9 iterations. Use an iteration
        // cap that is not a multiple of the sampling period so the lag
        // would show.
        let (x, y) = design(40);
        let prob = AsymLasso {
            x: &x,
            y: &y,
            alpha: 4.0,
            gamma: 1.0,
            unpenalized: unpenalized_bias(3),
        };
        let fit = prob.fit(FitOptions {
            max_iter: 23,
            tol: 0.0,
        });
        assert!(!fit.converged);
        assert_eq!(fit.iterations, 23);
        assert_eq!(
            fit.objective,
            prob.objective(&fit.beta),
            "reported objective must be evaluated at the returned beta"
        );
    }

    #[test]
    fn warm_start_from_zero_matches_cold_start() {
        let (x, y) = design(40);
        let prob = AsymLasso {
            x: &x,
            y: &y,
            alpha: 4.0,
            gamma: 1.0,
            unpenalized: unpenalized_bias(3),
        };
        let cold = prob.fit(FitOptions::default());
        let explicit = prob.fit_from(&[0.0, 0.0, 0.0], FitOptions::default());
        assert_eq!(cold.beta, explicit.beta, "zero warm start is the cold path");
        assert_eq!(cold.iterations, explicit.iterations);
    }

    #[test]
    fn warm_start_at_optimum_converges_immediately() {
        let (x, y) = design(50);
        let prob = AsymLasso {
            x: &x,
            y: &y,
            alpha: 2.0,
            gamma: 0.5,
            unpenalized: unpenalized_bias(3),
        };
        let cold = prob.fit(FitOptions::default());
        assert!(cold.converged);
        let warm = prob.fit_from(&cold.beta, FitOptions::default());
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations / 2,
            "restart at the optimum took {} of the cold start's {} iterations",
            warm.iterations,
            cold.iterations
        );
        assert!(warm.objective <= cold.objective * (1.0 + 1e-9));
    }

    #[test]
    #[should_panic(expected = "warm-start width mismatch")]
    fn warm_start_rejects_wrong_width() {
        let (x, y) = design(10);
        let prob = AsymLasso {
            x: &x,
            y: &y,
            alpha: 1.0,
            gamma: 0.0,
            unpenalized: unpenalized_bias(3),
        };
        prob.fit_from(&[0.0; 2], FitOptions::default());
    }

    #[test]
    #[should_panic(expected = "alpha must be >= 1")]
    fn rejects_bad_alpha() {
        let x = Matrix::zeros(1, 1);
        let y = vec![0.0];
        AsymLasso {
            x: &x,
            y: &y,
            alpha: 0.5,
            gamma: 0.0,
            unpenalized: vec![false],
        }
        .fit(FitOptions::default());
    }
}
