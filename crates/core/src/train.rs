//! The offline training pipeline (Fig. 6, top): instrument → profile →
//! fit.
//!
//! The accelerator is analysed and instrumented automatically, a training
//! workload is simulated to collect `(features, cycles)` pairs, and the
//! asymmetric-Lasso program of §3.4 is solved to obtain a sparse,
//! conservative linear model. A debiasing refit (γ = 0 restricted to the
//! selected support) recovers the accuracy the L1 shrinkage costs.

use predvfs_opt::{AsymLasso, FitOptions, Matrix, Standardizer};
use predvfs_rtl::{Analysis, CompiledSim, ExecMode, FeatureSchema, JobInput, JobTrace, Module};

use crate::error::CoreError;
use crate::model::ExecTimeModel;

/// Hyper-parameters of the training program.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Under-prediction penalty weight `α` (> 1 makes the model
    /// conservative; under-predictions cause deadline misses).
    pub alpha: f64,
    /// L1 weight `γ` controlling feature selection (in standardized,
    /// target-normalized space).
    pub gamma: f64,
    /// Whether to refit without the L1 penalty on the selected support.
    pub refit: bool,
    /// Solver iteration cap.
    pub max_iter: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            alpha: 8.0,
            gamma: 0.6,
            refit: true,
            max_iter: 4000,
        }
    }
}

/// Profiled training data: the design matrix of feature values and the
/// measured execution cycles, plus the schema describing the columns.
#[derive(Debug, Clone)]
pub struct TrainingData {
    /// Feature rows, one per job.
    pub x: Matrix,
    /// Execution cycles, one per job.
    pub y: Vec<f64>,
    /// Column layout.
    pub schema: FeatureSchema,
    /// Full per-job traces from the profiling runs, in job order.
    ///
    /// Probes are timing-neutral, so `traces[i].cycles` and
    /// `traces[i].dp_active` are exactly what an unprobed simulation
    /// would report — downstream consumers (e.g. leakage calibration)
    /// can reuse them instead of re-simulating the training set.
    pub traces: Vec<JobTrace>,
}

/// Runs the instrumented accelerator over `jobs`, recording feature values
/// and execution time for each (the "RTL simulation" box of Fig. 6).
///
/// Jobs are simulated in parallel (they are independent); rows are
/// written back in job order, so the result is bit-identical to a serial
/// profile.
///
/// # Errors
///
/// Returns an error when `jobs` is empty or a simulation fails.
pub fn profile(module: &Module, jobs: &[JobInput]) -> Result<TrainingData, CoreError> {
    if jobs.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    let analysis = Analysis::run(module);
    let schema = FeatureSchema::from_analysis(module, &analysis);
    let probes = schema.probe_program(&analysis);
    // Profiling runs on the compiled VM, which reuses the analysis the
    // probes were derived from.
    let sim = CompiledSim::with_analysis(module, &analysis)?;
    let traces: Vec<_> = predvfs_par::par_try_map(jobs, |job| {
        sim.run(job, ExecMode::FastForward, Some(&probes))
    })?;
    let mut x = Matrix::zeros(jobs.len(), schema.len());
    let mut y = Vec::with_capacity(jobs.len());
    for (i, t) in traces.iter().enumerate() {
        x.row_mut(i).copy_from_slice(&t.features);
        y.push(t.cycles as f64);
    }
    Ok(TrainingData {
        x,
        y,
        schema,
        traces,
    })
}

/// Records one FISTA solve's outcome (iteration count, momentum
/// restarts, final objective) into `sink`.
pub(crate) fn record_solver_metrics(sink: &dyn predvfs_obs::ObsSink, fit: &predvfs_opt::FitResult) {
    if !sink.enabled() {
        return;
    }
    sink.counter_add("predvfs_fista_fits_total", 1);
    sink.counter_add("predvfs_fista_iterations_total", fit.iterations as u64);
    sink.counter_add("predvfs_fista_restarts_total", fit.restarts as u64);
    if !fit.converged {
        sink.counter_add("predvfs_fista_nonconverged_total", 1);
    }
    sink.observe("predvfs_fista_objective", fit.objective);
}

/// Fits the execution-time model on profiled data.
pub fn fit(data: &TrainingData, config: &TrainerConfig) -> Result<ExecTimeModel, CoreError> {
    let sink = predvfs_obs::global();
    let _fit_span = predvfs_obs::span("core.fit");
    let std = Standardizer::fit(&data.x);
    let mut xs = std.transform(&data.x);
    let y_scale = data.y.iter().map(|v| v.abs()).sum::<f64>() / data.y.len() as f64;
    let y_scale = if y_scale > 0.0 { y_scale } else { 1.0 };
    let yn: Vec<f64> = data.y.iter().map(|v| v / y_scale).collect();
    let bias = data.schema.bias_index().unwrap_or(0);
    let mut unpenalized = vec![false; data.schema.len()];
    unpenalized[bias] = true;

    // Constant columns (other than the bias) are redundant with the bias
    // and, being untouched by standardization, would dominate the
    // conditioning of the problem; zero them out.
    for c in 0..xs.cols() {
        if c != bias && std.is_passthrough(c) {
            for r in 0..xs.rows() {
                *xs.get_mut(r, c) = 0.0;
            }
        }
    }

    // De-duplicate identical standardized columns (e.g. every per-token
    // transition count equals the token count). The L1 penalty is
    // indifferent to splitting weight across clones, which would inflate
    // the support; zeroing all but one representative keeps the selection
    // crisp without changing the model class.
    for c1 in 0..xs.cols() {
        if unpenalized[c1] || (0..xs.rows()).all(|r| xs.get(r, c1) == 0.0) {
            continue;
        }
        for (c2, &unpen) in unpenalized.iter().enumerate().skip(c1 + 1) {
            if unpen {
                continue;
            }
            let identical = (0..xs.rows()).all(|r| (xs.get(r, c1) - xs.get(r, c2)).abs() < 1e-9);
            if identical {
                for r in 0..xs.rows() {
                    *xs.get_mut(r, c2) = 0.0;
                }
            }
        }
    }

    let options = FitOptions {
        max_iter: config.max_iter,
        ..FitOptions::default()
    };
    let lasso = AsymLasso {
        x: &xs,
        y: &yn,
        alpha: config.alpha,
        gamma: config.gamma,
        unpenalized: unpenalized.clone(),
    }
    .fit(options);
    record_solver_metrics(sink, &lasso);
    let mut converged = lasso.converged;

    let mut support: Vec<usize> = lasso.support(1e-7);
    if !support.contains(&bias) {
        support.push(bias);
        support.sort_unstable();
    }

    let beta_std = if config.refit && support.len() < data.schema.len() {
        // Debias: ordinary asymmetric fit restricted to the support.
        let xr = xs.select_columns(&support);
        let refit = AsymLasso {
            x: &xr,
            y: &yn,
            alpha: config.alpha,
            gamma: 0.0,
            unpenalized: support.iter().map(|&c| unpenalized[c]).collect(),
        }
        .fit(options);
        record_solver_metrics(sink, &refit);
        converged &= refit.converged;
        let mut full = vec![0.0; data.schema.len()];
        for (j, &c) in support.iter().enumerate() {
            full[c] = refit.beta[j];
        }
        full
    } else {
        lasso.beta
    };

    let mut raw = std.fold_back(&beta_std, bias);
    for c in &mut raw {
        *c *= y_scale;
    }
    // Outside the selected support, coefficients are exactly zero by
    // construction (the refit only populates support columns); the raw
    // vector therefore already has a crisp support.
    for (i, c) in raw.iter_mut().enumerate() {
        if i != bias && !support.contains(&i) {
            *c = 0.0;
        }
    }
    Ok(ExecTimeModel::new(data.schema.clone(), raw).with_converged(converged))
}

/// Convenience: profile then fit.
///
/// # Errors
///
/// Propagates [`profile`] and [`fit`] errors.
pub fn train(
    module: &Module,
    jobs: &[JobInput],
    config: &TrainerConfig,
) -> Result<ExecTimeModel, CoreError> {
    let data = profile(module, jobs)?;
    fit(&data, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_rtl::builder::{ModuleBuilder, E};
    use rand::Rng;

    /// Toy accelerator: cycles ≈ 3·a + b per token plus small control
    /// overhead; a third input field is pure noise.
    fn toy() -> Module {
        let mut b = ModuleBuilder::new("toy");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let _noise = b.input("noise", 8);
        let fsm = b.fsm("ctrl", &["FETCH", "WA", "WB", "EMIT"]);
        let ca = b.wait_state(&fsm, "WA", "WB", "ca");
        b.enter_wait(
            &fsm,
            "FETCH",
            "WA",
            ca,
            a * E::k(3),
            E::stream_empty().is_zero(),
        );
        let cb = b.wait_state(&fsm, "WB", "EMIT", "cb");
        b.set(cb, fsm.in_state("WA") & ca.e().eq_(E::zero()), bb);
        b.trans(&fsm, "EMIT", "FETCH", E::one());
        b.advance_when(fsm.in_state("EMIT"));
        b.done_when(fsm.in_state("FETCH") & E::stream_empty());
        b.build().unwrap()
    }

    fn jobs(n: usize, seed: u64) -> Vec<JobInput> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut j = JobInput::new(3);
                for _ in 0..rng.gen_range(5..40) {
                    j.push(&[
                        rng.gen_range(1..200),
                        rng.gen_range(1..200),
                        rng.gen_range(0..255),
                    ]);
                }
                j
            })
            .collect()
    }

    #[test]
    fn trained_model_predicts_heldout_jobs() {
        let m = toy();
        let model = train(&m, &jobs(60, 1), &TrainerConfig::default()).unwrap();
        let data = profile(&m, &jobs(20, 2)).unwrap();
        for i in 0..data.x.rows() {
            let pred = model.predict_cycles(data.x.row(i));
            let actual = data.y[i];
            let err = (pred - actual) / actual;
            assert!(
                err.abs() < 0.05,
                "job {i}: pred {pred:.0} vs actual {actual:.0}"
            );
        }
    }

    #[test]
    fn conservative_fit_rarely_underpredicts() {
        let m = toy();
        let model = train(&m, &jobs(60, 3), &TrainerConfig::default()).unwrap();
        let data = profile(&m, &jobs(40, 4)).unwrap();
        let under = (0..data.x.rows())
            .filter(|&i| model.predict_cycles(data.x.row(i)) < data.y[i] * 0.98)
            .count();
        assert!(under <= 2, "{under} of 40 jobs under-predicted by >2%");
    }

    #[test]
    fn lasso_prunes_noise_features() {
        let m = toy();
        let model = train(&m, &jobs(80, 5), &TrainerConfig::default()).unwrap();
        // The toy design has 3 transitions + 2 counters ×3 = plenty of
        // candidate features; only a handful should survive.
        assert!(
            model.selected().len() <= 5,
            "support {:?}",
            model.support_summary()
        );
    }

    #[test]
    fn iteration_cap_marks_the_model_unconverged() {
        let m = toy();
        let data = profile(&m, &jobs(60, 1)).unwrap();
        let capped = TrainerConfig {
            max_iter: 2,
            ..TrainerConfig::default()
        };
        assert!(!fit(&data, &capped).unwrap().converged());
        assert!(fit(&data, &TrainerConfig::default()).unwrap().converged());
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let m = toy();
        assert!(matches!(profile(&m, &[]), Err(CoreError::EmptyTrainingSet)));
    }
}
