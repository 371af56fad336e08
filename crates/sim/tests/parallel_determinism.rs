//! The parallel engine must be *bit-identical* to the serial path:
//! preparation (parallel trace simulation + cached leakage calibration)
//! and `run_all` (parallel per-scheme fan-out) may not perturb a single
//! float, on either platform.
//!
//! `predvfs_par::with_threads(1)` forces every mapped closure onto the
//! calling thread (a plain serial loop), so serial/parallel pairs run the
//! exact same code with and without the thread pool.

use predvfs_accel::by_name;
use predvfs_sim::{Experiment, ExperimentConfig, Platform, Scheme};

fn prepare(name: &str, platform: Platform, threads: usize) -> Experiment {
    let bench = by_name(name).expect("registered benchmark");
    predvfs_par::with_threads(threads, || {
        Experiment::prepare(bench, ExperimentConfig::quick(platform)).expect("prepare")
    })
}

fn assert_experiments_match(serial: &Experiment, parallel: &Experiment, what: &str) {
    assert_eq!(
        serial.test_traces, parallel.test_traces,
        "{what}: test traces must be bit-identical"
    );
    assert_eq!(
        serial.train_cycles, parallel.train_cycles,
        "{what}: training cycles must be bit-identical"
    );
    assert_eq!(
        serial.model.coeffs(),
        parallel.model.coeffs(),
        "{what}: fitted coefficients must be bit-identical"
    );
}

#[test]
fn parallel_prepare_matches_serial_on_both_platforms() {
    for platform in [Platform::Asic, Platform::Fpga] {
        for name in ["sha", "aes"] {
            let serial = prepare(name, platform, 1);
            let parallel = prepare(name, platform, 4);
            assert_experiments_match(&serial, &parallel, name);
        }
    }
}

#[test]
fn run_all_matches_serial_runs_on_both_platforms() {
    for platform in [Platform::Asic, Platform::Fpga] {
        for name in ["sha", "aes"] {
            // One experiment per side: each builds its own slice table, so
            // the 4-thread side really runs the parallel table build
            // instead of reading the serially built one.
            let e = prepare(name, platform, 1);
            let serial: Vec<_> = predvfs_par::with_threads(1, || {
                Scheme::ALL
                    .iter()
                    .map(|&s| e.run(s).expect("serial run"))
                    .collect()
            });
            let e = prepare(name, platform, 1);
            let parallel =
                predvfs_par::with_threads(4, || e.run_all(&Scheme::ALL).expect("parallel run"));
            assert_eq!(parallel.len(), Scheme::ALL.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(
                    s, p,
                    "{name}/{:?}: per-job records must be bit-identical",
                    platform
                );
            }
        }
    }
}

#[test]
fn repeated_parallel_runs_are_reproducible() {
    let e = prepare("sha", Platform::Asic, 4);
    let a = predvfs_par::with_threads(4, || e.run_all(&Scheme::ALL).unwrap());
    let b = predvfs_par::with_threads(4, || e.run_all(&Scheme::ALL).unwrap());
    assert_eq!(a, b, "two identical parallel runs must agree exactly");
}
