//! Pins a real fit bit for bit: `train::fit` on quick h264 at seed 42.
//!
//! h264's design is the solver's widest sparse case: `train::fit` zeroes
//! 63 of its 85 non-bias columns (constants and exact duplicates) before
//! the Lasso solve. Every number below was recorded from the dense solver
//! that multiplied through all 86 columns, so they pin that skipping the
//! all-zero columns moves no iterate.
//!
//! `train::fit` reports each FISTA solve only to the process-wide sink,
//! so this file holds a single test: it installs a recorder and reads
//! each solve from the growth of the solver counters.

use std::sync::Arc;

use predvfs::train::{self, TrainerConfig};
use predvfs_accel::{by_name, WorkloadSize};
use predvfs_obs::{MetricsRegistry, Recorder};

/// What the solver counters and the objective histogram read.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Solves {
    fits: u64,
    iterations: u64,
    restarts: u64,
    nonconverged: u64,
    objective_sum_bits: u64,
}

impl Solves {
    fn read(registry: &MetricsRegistry) -> Solves {
        let counter = |name| registry.counter(name).get();
        let objective = registry.histogram("predvfs_fista_objective", &[]);
        Solves {
            fits: counter("predvfs_fista_fits_total"),
            iterations: counter("predvfs_fista_iterations_total"),
            restarts: counter("predvfs_fista_restarts_total"),
            nonconverged: counter("predvfs_fista_nonconverged_total"),
            objective_sum_bits: objective.sum().to_bits(),
        }
    }

    /// The solves recorded after `earlier` was read.
    fn since(self, earlier: Solves) -> Solves {
        let sum =
            f64::from_bits(self.objective_sum_bits) - f64::from_bits(earlier.objective_sum_bits);
        Solves {
            fits: self.fits - earlier.fits,
            iterations: self.iterations - earlier.iterations,
            restarts: self.restarts - earlier.restarts,
            nonconverged: self.nonconverged - earlier.nonconverged,
            objective_sum_bits: sum.to_bits(),
        }
    }
}

/// FNV-1a over the coefficients' bit patterns.
fn digest(coeffs: &[f64]) -> u64 {
    coeffs.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
        c.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

#[test]
fn quick_h264_fit_is_pinned() {
    let recorder = Arc::new(Recorder::new(16));
    assert!(predvfs_obs::install(Arc::clone(&recorder)));
    let registry = recorder.registry();

    let bench = by_name("h264").expect("h264 is registered");
    let module = (bench.build)();
    let workloads = (bench.workloads)(42, WorkloadSize::Quick);
    let data = train::profile(&module, &workloads.train).expect("profile");

    // The default trainer: the Lasso solve, then the debiasing refit.
    let model = train::fit(&data, &TrainerConfig::default()).expect("fit");
    let both = Solves::read(registry);

    // The Lasso solve alone.
    let lasso_only = TrainerConfig {
        refit: false,
        ..TrainerConfig::default()
    };
    let lasso_model = train::fit(&data, &lasso_only).expect("lasso fit");
    let lasso = Solves::read(registry).since(both);
    let refit = both.since(lasso);

    let pinned = |fits, iterations, restarts, objective_sum_bits| Solves {
        fits,
        iterations,
        restarts,
        nonconverged: 0,
        objective_sum_bits,
    };
    // `PREDVFS_QUICK=1 predvfs eval h264 --metrics-out` exports both
    // solves' sum as `predvfs_fista_objective_sum`: 0.09571542246323002.
    assert_eq!(both, pinned(2, 3480, 6, 0x3fb8_80ce_5133_d045));
    assert_eq!(lasso, pinned(1, 2830, 4, 0x3fb8_0d38_8381_e56f));
    assert_eq!((refit.fits, refit.iterations, refit.restarts), (1, 650, 2));
    assert_eq!(refit.nonconverged, 0);
    assert!(model.converged() && lasso_model.converged());
    assert_eq!(digest(model.coeffs()), 0x7290_c7f3_3b7b_5c06);
    assert_eq!(digest(lasso_model.coeffs()), 0xeccb_3a52_ee87_3abe);
}
