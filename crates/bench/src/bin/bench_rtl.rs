//! Compiled-VM vs interpreter benchmark and differential gate.
//!
//! For every paper benchmark this binary first asserts the differential
//! contract — byte-identical `JobTrace`s (including the floating-point
//! feature stream) and final register files between the bytecode VM and
//! the reference interpreter, probed, in all three execution modes — and
//! then times both engines on the same job set, reporting cycles/sec and
//! the VM speedup per `(benchmark, mode)` plus a per-mode geometric mean.
//! Cycles/sec divides by every simulated cycle, skipped ones included, so
//! in the skip modes it reads 10⁸–10¹⁰ and hides what a cycle the VM
//! actually executes costs; `vm_ns/step` divides the VM time by the
//! stepped cycles only.
//! The skip modes are timed twice: unprobed, and with the benchmark's
//! full probe program bound to the VM once, which is how production runs
//! them — `FastForward` for the training profile, `Compressed` for the
//! hardware slices.
//!
//! The equality gate is unconditional: any divergence exits non-zero, so
//! CI fails if the compiler ever drifts from the oracle. The ≥10× speedup
//! target is *reported*, not asserted — the measured ratio lands in
//! `BENCH_rtl.json` at the repo root either way.
//!
//! `--quick` (or `PREDVFS_QUICK=1`) shrinks the job set for CI smoke.

#![forbid(unsafe_code)]

use predvfs_accel::{all, WorkloadSize};
use predvfs_bench::bench_report::BenchReport;
use predvfs_bench::{best_of, quick, results_dir};
use predvfs_rtl::{
    Analysis, CompiledSim, ExecMode, FeatureSchema, JobInput, ProbeProgram, Simulator,
};
use predvfs_sim::{outln, Table};

/// One `(benchmark, mode)` measurement.
struct Run {
    bench: &'static str,
    mode: &'static str,
    jobs: usize,
    /// Total simulated cycles across the job set (identical for both
    /// engines — the gate already proved it).
    cycles: u64,
    /// The stepped part of `cycles` (`JobTrace::stepped_cycles`).
    stepped: u64,
    interp_s: f64,
    vm_s: f64,
}

impl Run {
    fn speedup(&self) -> f64 {
        self.interp_s / self.vm_s
    }
    fn interp_cps(&self) -> f64 {
        self.cycles as f64 / self.interp_s
    }
    fn vm_cps(&self) -> f64 {
        self.cycles as f64 / self.vm_s
    }
    fn vm_ns_per_step(&self) -> f64 {
        self.vm_s * 1e9 / self.stepped as f64
    }
}

const MODES: [(&str, ExecMode); 3] = [
    ("step", ExecMode::Step),
    ("fast_forward", ExecMode::FastForward),
    ("compressed", ExecMode::Compressed),
];

/// The timed configurations: `(name, mode, probed)`.
const TIMED: [(&str, ExecMode, bool); 5] = [
    ("step", ExecMode::Step, false),
    ("fast_forward", ExecMode::FastForward, false),
    ("compressed", ExecMode::Compressed, false),
    ("fast_forward_probed", ExecMode::FastForward, true),
    ("compressed_probed", ExecMode::Compressed, true),
];

/// Asserts byte-identity of traces and final state on `jobs` in every
/// mode, probed and unprobed. Exits the process on divergence.
fn differential_gate(
    bench: &str,
    interp: &Simulator,
    vm: &CompiledSim,
    probes: &ProbeProgram,
    jobs: &[JobInput],
) {
    for (mode_name, mode) in MODES {
        for (ji, job) in jobs.iter().enumerate() {
            for p in [None, Some(probes)] {
                let want = interp
                    .run_with_state(job, mode, p)
                    .unwrap_or_else(|e| panic!("{bench}: interpreter failed: {e}"));
                let got = vm
                    .run_with_state(job, mode, p)
                    .unwrap_or_else(|e| panic!("{bench}: VM failed: {e}"));
                if want != got {
                    eprintln!(
                        "DIFFERENTIAL FAILURE: {bench} job {ji} mode {mode_name} \
                         probed={}: VM diverged from the interpreter oracle",
                        p.is_some()
                    );
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Wall time of the fastest of `reps` passes over `jobs`.
fn time_engine<F: Fn(&JobInput)>(jobs: &[JobInput], reps: usize, run: F) -> f64 {
    let (best, ()) = best_of(reps, || {
        for job in jobs {
            run(job);
        }
    });
    best
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        return 0.0;
    }
    (sum / n as f64).exp()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = quick();
    // Step mode replays every cycle, so it gets the smallest job prefix;
    // the skip modes can afford more.
    let (step_jobs, skip_jobs, reps) = if quick { (1, 2, 1) } else { (2, 8, 3) };

    let mut runs: Vec<Run> = Vec::new();
    for bench in all() {
        let module = (bench.build)();
        let analysis = Analysis::run(&module);
        let schema = FeatureSchema::from_analysis(&module, &analysis);
        let probes = schema.probe_program(&analysis);
        let interp = Simulator::with_analysis(&module, &analysis);
        let vm = CompiledSim::with_analysis(&module, &analysis)?;
        // Production binds probes once per simulator, not per job.
        let probed_vm = vm.bind(&probes)?;
        let mut jobs = (bench.workloads)(11, WorkloadSize::Quick).test;
        jobs.truncate(skip_jobs.max(step_jobs));

        eprintln!("{}: differential gate...", bench.name);
        differential_gate(bench.name, &interp, &vm, &probes, &jobs);

        for (mode_name, mode, probed) in TIMED {
            let n = if mode == ExecMode::Step {
                step_jobs
            } else {
                skip_jobs
            };
            let subset = &jobs[..n.min(jobs.len())];
            let p = probed.then_some(&probes);
            let traces: Vec<_> = subset
                .iter()
                .map(|j| interp.run(j, mode, p).unwrap())
                .collect();
            let cycles = traces.iter().map(|t| t.cycles).sum();
            let stepped = traces.iter().map(|t| t.stepped_cycles).sum();
            let interp_s = time_engine(subset, reps, |j| {
                interp.run(j, mode, p).unwrap();
            });
            let vm_s = time_engine(subset, reps, |j| {
                if probed {
                    probed_vm.run(j, mode).unwrap();
                } else {
                    vm.run(j, mode, None).unwrap();
                }
            });
            runs.push(Run {
                bench: bench.name,
                mode: mode_name,
                jobs: subset.len(),
                cycles,
                stepped,
                interp_s,
                vm_s,
            });
        }
    }

    let mut table = Table::new(
        "RTL engines: interpreter vs compiled VM (cycles/sec)",
        &[
            "bench",
            "mode",
            "jobs",
            "cycles",
            "interp_s",
            "vm_s",
            "interp_c/s",
            "vm_c/s",
            "vm_ns/step",
            "speedup",
        ],
    );
    for r in &runs {
        table.row(&[
            r.bench.to_owned(),
            r.mode.to_owned(),
            r.jobs.to_string(),
            r.cycles.to_string(),
            format!("{:.4}", r.interp_s),
            format!("{:.4}", r.vm_s),
            format!("{:.2e}", r.interp_cps()),
            format!("{:.2e}", r.vm_cps()),
            format!("{:.1}", r.vm_ns_per_step()),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    table.print();

    let geo: Vec<(&str, f64)> = TIMED
        .iter()
        .map(|&(mode, _, _)| {
            (
                mode,
                geomean(runs.iter().filter(|r| r.mode == mode).map(Run::speedup)),
            )
        })
        .collect();
    for (mode, g) in &geo {
        let verdict = if *g >= 10.0 {
            "meets the 10x target"
        } else {
            "below the 10x target (measured ratio recorded)"
        };
        outln!("geomean speedup [{mode}]: {g:.2}x — {verdict}");
    }
    outln!("differential gate: all benchmarks byte-identical across engines and modes");

    let csv = results_dir().join("bench_rtl.csv");
    table.write_csv(&csv)?;
    outln!("wrote {}", csv.display());

    // Schema-v1 report: per-configuration geomean speedups (gated,
    // higher-better), the VM throughput of the reference per-cycle mode
    // and of the slice configuration, and the VM's cost per stepped cycle
    // on the test-trace path (FastForward, unprobed) and the slice path
    // (Compressed, probed). Per-(benchmark, mode) detail lives in the CSV.
    let mut report = BenchReport::new("rtl", quick);
    for (mode, g) in &geo {
        report.metric(&format!("geomean_speedup_{mode}"), *g);
    }
    for mode in ["step", "compressed_probed"] {
        report.metric(
            &format!("{mode}_vm_cps"),
            geomean(runs.iter().filter(|r| r.mode == mode).map(Run::vm_cps)),
        );
    }
    for mode in ["fast_forward", "compressed_probed"] {
        report.metric(
            &format!("vm_ns_per_step_{mode}"),
            geomean(
                runs.iter()
                    .filter(|r| r.mode == mode)
                    .map(Run::vm_ns_per_step),
            ),
        );
    }
    report.notes(
        "Target speedup: 10x (reported, not asserted). Step is the \
         reference per-cycle mode and is where the compiled pipeline pays \
         off: state-specialized bytecode plus batch retirement of \
         analysis-proven wait cycles. Both engines fast-forward wait \
         cycles in the skip modes, so there the VM wins only on the cycles \
         it still steps. The *_probed rows run the full probe program, \
         bound once per VM: FastForward probed is the training profile, \
         Compressed probed is a hardware slice. vm_ns_per_step_* divide VM \
         time by stepped cycles only (c/s also counts skipped ones). \
         Per-(benchmark, mode) detail is in results/bench_rtl.csv.",
    );
    let path = report.write_into(std::path::Path::new("."))?;
    outln!("wrote {}", path.display());
    Ok(())
}
