//! Property-based tests for the optimization crate: the proximal operator,
//! solver convergence, standardization round-trips, and the live-column
//! solve against a dense reference loop, on random problems.

use proptest::prelude::*;

use predvfs_opt::{
    convergence_check, dot, soft_threshold, AsymLasso, CheckOutcome, FitOptions, FitResult, Matrix,
    Standardizer,
};

fn random_problem() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (2usize..30, 2usize..8).prop_flat_map(|(rows, cols)| {
        (
            prop::collection::vec(-10.0f64..10.0, rows * cols),
            prop::collection::vec(-100.0f64..100.0, rows),
        )
            .prop_map(move |(mut data, y)| {
                // Force a bias column so `unpenalized` has a target.
                for r in 0..rows {
                    data[r * cols] = 1.0;
                }
                (Matrix::from_rows(rows, cols, data), y)
            })
    })
}

/// The dense objective: every column of `x`, as the solver computed it
/// before it learned to skip all-zero columns.
fn dense_objective(prob: &AsymLasso, beta: &[f64]) -> f64 {
    let mut r = vec![0.0; prob.x.rows()];
    prob.x.matvec(beta, &mut r);
    let mut smooth = 0.0;
    for (ri, yi) in r.iter().zip(prob.y) {
        let e = ri - yi;
        if e > 0.0 {
            smooth += e * e;
        } else {
            smooth += prob.alpha * e * e;
        }
    }
    let l1: f64 = beta
        .iter()
        .zip(&prob.unpenalized)
        .filter(|(_, u)| !**u)
        .map(|(b, _)| b.abs())
        .sum();
    smooth + prob.gamma * l1
}

/// The dense gradient of the smooth part, written into `grad`.
fn dense_smooth_grad(prob: &AsymLasso, beta: &[f64], resid: &mut [f64], grad: &mut [f64]) {
    prob.x.matvec(beta, resid);
    for (ri, yi) in resid.iter_mut().zip(prob.y) {
        let e = *ri - yi;
        *ri = if e > 0.0 {
            2.0 * e
        } else {
            2.0 * prob.alpha * e
        };
    }
    prob.x.matvec_t(resid, grad);
}

/// The reference: the dense FISTA loop that multiplies through every
/// column on every iteration.
fn dense_fit_from(prob: &AsymLasso, beta0: &[f64], options: FitOptions) -> FitResult {
    let p = prob.x.cols();
    let lipschitz = (2.0 * prob.alpha.max(1.0) * prob.x.gram_spectral_norm(60)).max(1e-12);
    let step = 1.0 / lipschitz;

    let mut beta = beta0.to_vec();
    let mut beta_prev = vec![0.0; p];
    let mut theta = beta0.to_vec();
    let mut grad = vec![0.0; p];
    let mut resid = vec![0.0; prob.x.rows()];
    let mut t = 1.0f64;
    let mut prev_obj = dense_objective(prob, &beta);
    let mut iterations = 0;
    let mut restarts = 0;
    let mut converged = false;

    for it in 0..options.max_iter {
        iterations = it + 1;
        dense_smooth_grad(prob, &theta, &mut resid, &mut grad);
        beta_prev.copy_from_slice(&beta);
        for j in 0..p {
            let z = theta[j] - step * grad[j];
            beta[j] = if prob.unpenalized[j] {
                z
            } else {
                soft_threshold(z, prob.gamma * step)
            };
        }
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let momentum = (t - 1.0) / t_next;
        for j in 0..p {
            theta[j] = beta[j] + momentum * (beta[j] - beta_prev[j]);
        }
        t = t_next;

        if it % 10 == 9 {
            let obj = dense_objective(prob, &beta);
            match convergence_check(prev_obj, obj, options.tol) {
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
        objective: dense_objective(prob, &beta),
        beta,
        iterations,
        restarts,
        converged,
    }
}

/// Requires the solver's fit and the dense reference's to agree bit for
/// bit.
fn assert_matches_dense(
    prob: &AsymLasso,
    beta0: &[f64],
    options: FitOptions,
) -> Result<(), TestCaseError> {
    let fit = prob.fit_from(beta0, options);
    let dense = dense_fit_from(prob, beta0, options);
    let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&fit.beta), bits(&dense.beta));
    prop_assert_eq!(fit.objective.to_bits(), dense.objective.to_bits());
    prop_assert_eq!(fit.iterations, dense.iterations);
    prop_assert_eq!(fit.restarts, dense.restarts);
    prop_assert_eq!(fit.converged, dense.converged);
    Ok(())
}

/// How one column of a [`sparse_problem`] is drawn.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// Random entries, random warm start.
    Live,
    /// All `+0.0`, warm start `+0.0`: left out of the solve.
    Dead,
    /// All `-0.0`, warm start `+0.0`: left out of the solve.
    DeadNegative,
    /// All zero, nonzero warm start: kept in the solve.
    DeadWarm,
    /// All zero, warm start `-0.0`: kept in the solve.
    DeadSignedWarm,
}

/// A problem with random all-zero columns: the design, targets, per-column
/// penalty exemptions and a warm start.
type SparseProblem = (Matrix, Vec<f64>, Vec<bool>, Vec<f64>);

/// Designs run up to 39 columns wide: on narrow ones the power iteration
/// reaches its fixed point from any start vector, so only wide ones would
/// show a step size estimated on the live columns alone.
fn sparse_problem() -> impl Strategy<Value = SparseProblem> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        (
            prop::collection::vec(-10.0f64..10.0, rows * cols),
            prop::collection::vec(-100.0f64..100.0, rows),
            prop::collection::vec(0usize..5, cols),
            prop::collection::vec(any::<bool>(), cols),
            prop::collection::vec(-2.0f64..2.0, cols),
            any::<bool>(),
        )
            .prop_map(move |(mut data, y, kinds, unpenalized, mut beta0, cold)| {
                let all = [
                    Column::Live,
                    Column::Dead,
                    Column::DeadNegative,
                    Column::DeadWarm,
                    Column::DeadSignedWarm,
                ];
                for (j, &k) in kinds.iter().enumerate() {
                    let (entry, warm) = match all[k] {
                        Column::Live => (None, if cold { 0.0 } else { beta0[j] }),
                        Column::Dead => (Some(0.0), 0.0),
                        Column::DeadNegative => (Some(-0.0), 0.0),
                        Column::DeadWarm => (Some(0.0), beta0[j] + 3.0),
                        Column::DeadSignedWarm => (Some(0.0), -0.0),
                    };
                    if let Some(v) = entry {
                        for r in 0..rows {
                            data[r * cols + j] = v;
                        }
                    }
                    beta0[j] = warm;
                }
                (Matrix::from_rows(rows, cols, data), y, unpenalized, beta0)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_column_solve_matches_the_dense_loop(
        (x, y, unpenalized, beta0) in sparse_problem(),
        alpha in 1.0f64..16.0,
        gamma in 0.0f64..5.0,
        (max_iter, short) in (0usize..400, any::<bool>()),
    ) {
        // Half the cases stop within two iterations, where a `-0.0` warm
        // start can still show in the result.
        let max_iter = if short { max_iter % 3 } else { max_iter };
        let prob = AsymLasso { x: &x, y: &y, alpha, gamma, unpenalized };
        assert_matches_dense(&prob, &beta0, FitOptions { max_iter, tol: 1e-9 })?;
    }

    #[test]
    fn all_zero_design_matches_the_dense_loop(
        (rows, cols) in (1usize..20, 1usize..8),
        y in prop::collection::vec(-100.0f64..100.0, 20),
        unpenalized in prop::collection::vec(any::<bool>(), 8),
        warm in prop::collection::vec(-2.0f64..2.0, 8),
        cold in any::<bool>(),
        gamma in 0.0f64..5.0,
    ) {
        let x = Matrix::zeros(rows, cols);
        let beta0: Vec<f64> = if cold { vec![0.0; cols] } else { warm[..cols].to_vec() };
        let prob = AsymLasso {
            x: &x,
            y: &y[..rows],
            alpha: 4.0,
            gamma,
            unpenalized: unpenalized[..cols].to_vec(),
        };
        assert_matches_dense(&prob, &beta0, FitOptions::default())?;
    }

    #[test]
    fn soft_threshold_is_a_shrinkage(z in -1e6f64..1e6, t in 0.0f64..1e5) {
        let s = soft_threshold(z, t);
        prop_assert!(s.abs() <= z.abs() + 1e-12, "no expansion");
        prop_assert!(s * z >= 0.0, "sign preserved or zero");
        prop_assert!((z.abs() - s.abs() - t.min(z.abs())).abs() < 1e-9);
    }

    #[test]
    fn soft_threshold_identity_at_zero(z in -1e6f64..1e6) {
        prop_assert_eq!(soft_threshold(z, 0.0), z);
    }

    #[test]
    fn fit_never_exceeds_zero_objective(
        (x, y) in random_problem(),
        alpha in 1.0f64..16.0,
        gamma in 0.0f64..5.0,
    ) {
        let mut unpenalized = vec![false; x.cols()];
        unpenalized[0] = true;
        let prob = AsymLasso { x: &x, y: &y, alpha, gamma, unpenalized };
        let at_zero = prob.objective(&vec![0.0; x.cols()]);
        let fit = prob.fit(FitOptions { max_iter: 800, tol: 1e-9 });
        let at_fit = prob.objective(&fit.beta);
        prop_assert!(
            at_fit <= at_zero * (1.0 + 1e-9) + 1e-9,
            "objective {at_fit} should not exceed start {at_zero}"
        );
    }

    #[test]
    fn larger_gamma_never_grows_the_penalized_l1(
        (x, y) in random_problem(),
    ) {
        let mut unpenalized = vec![false; x.cols()];
        unpenalized[0] = true;
        let l1_of = |gamma: f64| {
            let prob = AsymLasso {
                x: &x,
                y: &y,
                alpha: 2.0,
                gamma,
                unpenalized: unpenalized.clone(),
            };
            let fit = prob.fit(FitOptions { max_iter: 1500, tol: 1e-11 });
            fit.beta[1..].iter().map(|b| b.abs()).sum::<f64>()
        };
        let small = l1_of(0.01);
        let large = l1_of(10.0);
        prop_assert!(
            large <= small + 1e-3 + small * 0.05,
            "l1 at gamma=10 ({large}) should not exceed l1 at gamma=0.01 ({small})"
        );
    }

    #[test]
    fn standardize_fold_back_roundtrip(
        (x, _) in random_problem(),
        beta in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        let std = Standardizer::fit(&x);
        let xs = std.transform(&x);
        let beta_std: Vec<f64> = (0..x.cols()).map(|i| beta[i % beta.len()]).collect();
        let raw = std.fold_back(&beta_std, 0);
        for r in 0..x.rows() {
            let p_std = dot(xs.row(r), &beta_std);
            let p_raw = dot(x.row(r), &raw);
            prop_assert!((p_std - p_raw).abs() < 1e-6 * (1.0 + p_std.abs()));
        }
    }
}
