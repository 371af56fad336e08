//! FISTA solver benchmark: wall time of one asymmetric-Lasso fit on the
//! standard 600×86 synthetic problem (sparse true support, unpenalized
//! bias, mild noise), and on the same problem with 63 of its 85 non-bias
//! columns zeroed, the shape of h264's design once the trainer zeroes its
//! constant and duplicate columns. Every fit also pays the Lipschitz
//! estimate, `Matrix::gram_spectral_norm(60)` over the full design.
//!
//! Results land in `BENCH_opt.json` (schema v1); `fista_fit_ms` and
//! `fista_fit_dead_cols_ms` are the gated metrics. Iteration counts are
//! recorded informationally — the solver is deterministic, so a *change*
//! in iterations flags an algorithmic drift even when wall time stays
//! inside tolerance.

#![forbid(unsafe_code)]

use predvfs_bench::bench_report::BenchReport;
use predvfs_bench::{best_of, quick};
use predvfs_opt::{AsymLasso, FitOptions, FitResult, Matrix};
use predvfs_sim::outln;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The standard synthetic problem: sparse support (every 7th column),
/// bias in column 0, noise ±0.05.
fn synthetic_problem(rows: usize, cols: usize) -> (Matrix, Vec<f64>) {
    let mut r = StdRng::seed_from_u64(17);
    let mut x = Matrix::zeros(rows, cols);
    let beta: Vec<f64> = (0..cols)
        .map(|j| {
            if j % 7 == 0 {
                r.gen_range(0.5..2.0)
            } else {
                0.0
            }
        })
        .collect();
    let mut y = vec![0.0; rows];
    for (i, yi) in y.iter_mut().enumerate() {
        *x.get_mut(i, 0) = 1.0;
        for j in 1..cols {
            *x.get_mut(i, j) = r.gen_range(-1.0..1.0);
        }
        *yi = (0..cols).map(|j| x.get(i, j) * beta[j]).sum::<f64>() + r.gen_range(-0.05..0.05);
    }
    (x, y)
}

/// Zeroes the first 63 non-bias columns off the true support (every 7th
/// column), leaving 22 live non-bias columns as in h264's design; the
/// targets stay explained by the live columns.
fn zero_dead_columns(x: &mut Matrix) {
    let dead: Vec<usize> = (1..x.cols()).filter(|j| j % 7 != 0).take(63).collect();
    for r in 0..x.rows() {
        for &j in &dead {
            *x.get_mut(r, j) = 0.0;
        }
    }
}

/// The best wall time in milliseconds of `reps` fits of `x`/`y`, and the
/// (deterministic) fit.
fn time_fit(x: &Matrix, y: &[f64], reps: usize) -> (f64, FitResult) {
    let mut unpenalized = vec![false; x.cols()];
    unpenalized[0] = true;
    let problem = AsymLasso {
        x,
        y,
        alpha: 8.0,
        gamma: 0.1,
        unpenalized,
    };
    let options = FitOptions {
        max_iter: 500,
        tol: 1e-7,
    };
    let (best, fit) = best_of(reps, || problem.fit(options));
    (best * 1e3, fit)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = quick();
    let reps = if quick { 3 } else { 10 };

    let (mut x, y) = synthetic_problem(600, 86);
    let (fit_ms, fit) = time_fit(&x, &y, reps);
    outln!(
        "fista 600x86: {fit_ms:.2} ms (best of {reps}), {} iterations, \
         {} restarts, converged={}, objective {:.6}",
        fit.iterations,
        fit.restarts,
        fit.converged,
        fit.objective
    );
    zero_dead_columns(&mut x);
    let (dead_ms, dead) = time_fit(&x, &y, reps);
    outln!(
        "fista 600x86, 63 zero columns: {dead_ms:.2} ms (best of {reps}), \
         {} iterations, {} restarts, converged={}, objective {:.6}",
        dead.iterations,
        dead.restarts,
        dead.converged,
        dead.objective
    );

    let mut report = BenchReport::new("opt", quick);
    report
        .metric("fista_fit_ms", fit_ms)
        .metric("fista_iterations_info", fit.iterations as f64)
        .metric("fista_restarts_info", fit.restarts as f64)
        .metric("fista_objective_info", fit.objective)
        .metric("fista_fit_dead_cols_ms", dead_ms)
        .metric("fista_dead_cols_iterations_info", dead.iterations as f64)
        .notes(
            "One AsymLasso::fit on the standard 600x86 synthetic problem \
             (alpha 8.0, gamma 0.1, max_iter 500, tol 1e-7); best of \
             several reps. fista_fit_dead_cols_ms fits the same problem \
             with 63 of its 85 non-bias columns zeroed (h264's shape). \
             Iterations/restarts/objective are deterministic and recorded \
             informationally to flag algorithmic drift.",
        );
    let path = report.write_into(std::path::Path::new("."))?;
    outln!("wrote {}", path.display());
    Ok(())
}
