//! # predvfs-accel
//!
//! The seven benchmark accelerators of the MICRO'15 predictive-DVFS paper
//! (Table 3), modelled in the [`predvfs_rtl`] FSMD IR, together with
//! synthetic workload generators reproducing each benchmark's
//! execution-time statistics (Table 4).
//!
//! | name    | task                        | module  |
//! |---------|-----------------------------|---------|
//! | h264    | decode one video frame      | [`h264`] |
//! | cjpeg   | encode one image            | [`cjpeg`] |
//! | djpeg   | decode one image            | [`djpeg`] |
//! | md      | simulate one MD timestep    | [`md`] |
//! | stencil | filter one image            | [`stencil`] |
//! | aes     | encrypt one piece of data   | [`aes`] |
//! | sha     | hash one piece of data      | [`sha`] |
//!
//! # Examples
//!
//! ```
//! use predvfs_accel::{by_name, WorkloadSize};
//! use predvfs_rtl::{CompiledSim, ExecMode};
//!
//! let bench = by_name("sha").expect("registered benchmark");
//! let module = (bench.build)();
//! let jobs = (bench.workloads)(42, WorkloadSize::Quick);
//! let sim = CompiledSim::new(&module)?;
//! let trace = sim.run(&jobs.test[0], ExecMode::FastForward, None)?;
//! assert!(trace.cycles > 0);
//! # Ok::<(), predvfs_rtl::RtlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use predvfs_rtl::{JobInput, Module};

pub mod aes;
pub mod cjpeg;
pub mod common;
pub mod djpeg;
pub mod h264;
pub mod md;
pub mod sha;
pub mod stencil;

pub use common::WorkloadSize;

/// Training and test job sets for one benchmark (Table 3).
#[derive(Debug, Clone)]
pub struct Workloads {
    /// Jobs used to fit the execution-time model.
    pub train: Vec<JobInput>,
    /// Held-out jobs used for every evaluation figure.
    pub test: Vec<JobInput>,
}

/// A registered benchmark accelerator.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Short name used throughout the paper's tables (e.g. `"h264"`).
    pub name: &'static str,
    /// What one task is (Table 3's "Task" column).
    pub task: &'static str,
    /// Nominal synthesis frequency in MHz at 1 V (Table 4).
    pub f_nominal_mhz: f64,
    /// Leakage share of total power at nominal, used to calibrate the
    /// energy model (§4.1's gate-level characterization stand-in).
    pub leak_share: f64,
    /// Builds the accelerator module.
    pub build: fn() -> Module,
    /// Generates the train/test workloads for a seed.
    pub workloads: fn(u64, WorkloadSize) -> Workloads,
}

/// All seven benchmarks, in the paper's order.
pub fn all() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "h264",
            task: "decode one frame",
            f_nominal_mhz: h264::F_NOMINAL_MHZ,
            leak_share: 0.09,
            build: h264::build,
            workloads: h264::workloads,
        },
        Benchmark {
            name: "cjpeg",
            task: "encode one image",
            f_nominal_mhz: cjpeg::F_NOMINAL_MHZ,
            leak_share: 0.09,
            build: cjpeg::build,
            workloads: cjpeg::workloads,
        },
        Benchmark {
            name: "djpeg",
            task: "decode one image",
            f_nominal_mhz: djpeg::F_NOMINAL_MHZ,
            leak_share: 0.09,
            build: djpeg::build,
            workloads: djpeg::workloads,
        },
        Benchmark {
            name: "md",
            task: "simulate one timestep",
            f_nominal_mhz: md::F_NOMINAL_MHZ,
            leak_share: 0.08,
            build: md::build,
            workloads: md::workloads,
        },
        Benchmark {
            name: "stencil",
            task: "filter one image",
            f_nominal_mhz: stencil::F_NOMINAL_MHZ,
            leak_share: 0.07,
            build: stencil::build,
            workloads: stencil::workloads,
        },
        Benchmark {
            name: "aes",
            task: "encrypt a piece of data",
            f_nominal_mhz: aes::F_NOMINAL_MHZ,
            leak_share: 0.09,
            build: aes::build,
            workloads: aes::workloads,
        },
        Benchmark {
            name: "sha",
            task: "hash a piece of data",
            f_nominal_mhz: sha::F_NOMINAL_MHZ,
            leak_share: 0.09,
            build: sha::build,
            workloads: sha::workloads,
        },
    ]
}

/// Looks up a benchmark by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_seven_benchmarks() {
        let names: Vec<&str> = all().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec!["h264", "cjpeg", "djpeg", "md", "stencil", "aes", "sha"]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("md").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_module_builds_and_validates() {
        for b in all() {
            let m = (b.build)();
            assert_eq!(m.name, b.name);
            assert!(m.validate().is_ok(), "{} must validate", b.name);
        }
    }
}
