//! The compiled VM against the interpreter oracle on all seven paper
//! benchmarks and on their hardware slices.
//!
//! This is the contract that lets the VM be the only production engine:
//! for every benchmark accelerator, every execution mode, and probed as
//! well as unprobed runs, the bytecode VM must produce *byte-identical*
//! results to the reference interpreter — the full [`JobTrace`] (cycles,
//! per-datapath activity, token counts, and the STC/IC/AIV/APV feature
//! stream, which accumulates in `f64` and therefore checks floating-point
//! order too) and the final flattened register file. CI fails if any
//! benchmark diverges.

use predvfs::{train, SliceFlavor, SlicePredictor, TrainerConfig};
use predvfs_accel::{all, Benchmark, WorkloadSize};
use predvfs_rtl::{
    Analysis, CompiledSim, ExecMode, FeatureSchema, JobInput, JobTrace, RtlError, Simulator,
    SliceOptions,
};

/// Compares both engines on `jobs`, probed and unprobed, in `mode`.
fn assert_engines_agree(bench: &Benchmark, jobs: &[JobInput], mode: ExecMode) {
    let module = (bench.build)();
    let analysis = Analysis::run(&module);
    let schema = FeatureSchema::from_analysis(&module, &analysis);
    let probes = schema.probe_program(&analysis);
    let interp = Simulator::with_analysis(&module, &analysis);
    let vm = CompiledSim::with_analysis(&module, &analysis)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.name));
    for (ji, job) in jobs.iter().enumerate() {
        for probes in [None, Some(&probes)] {
            let (want_trace, want_state) = interp
                .run_with_state(job, mode, probes)
                .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", bench.name));
            let (got_trace, got_state) = vm
                .run_with_state(job, mode, probes)
                .unwrap_or_else(|e| panic!("{}: VM failed: {e}", bench.name));
            assert_eq!(
                want_trace,
                got_trace,
                "{}: trace diverged (job {ji}, mode {mode:?}, probed={})",
                bench.name,
                probes.is_some()
            );
            assert_eq!(
                want_state, got_state,
                "{}: final register state diverged (job {ji}, mode {mode:?})",
                bench.name
            );
        }
    }
}

/// A few test jobs per benchmark; Step mode gets the smallest prefix to
/// stay affordable (it pays every wait cycle).
fn jobs_for(bench: &Benchmark, n: usize) -> Vec<JobInput> {
    let mut w = (bench.workloads)(11, WorkloadSize::Quick);
    w.test.truncate(n);
    w.test
}

#[test]
fn compiled_matches_interpreter_fast_forward_all_benchmarks() {
    for bench in all() {
        let jobs = jobs_for(&bench, 4);
        assert_engines_agree(&bench, &jobs, ExecMode::FastForward);
    }
}

#[test]
fn compiled_matches_interpreter_compressed_all_benchmarks() {
    for bench in all() {
        let jobs = jobs_for(&bench, 4);
        assert_engines_agree(&bench, &jobs, ExecMode::Compressed);
    }
}

#[test]
fn compiled_matches_interpreter_step_all_benchmarks() {
    // Step replays every cycle, so keep to one job per benchmark; this is
    // the strongest check (no skip path on either side).
    for bench in all() {
        let jobs = jobs_for(&bench, 1);
        assert_engines_agree(&bench, &jobs, ExecMode::Step);
    }
}

/// The final register file of one job in Step, FastForward and Compressed
/// mode, in that order.
fn final_states(run: impl Fn(ExecMode) -> Result<(JobTrace, Vec<u64>), RtlError>) -> [Vec<u64>; 3] {
    [ExecMode::Step, ExecMode::FastForward, ExecMode::Compressed].map(|mode| {
        run(mode)
            .unwrap_or_else(|e| panic!("{mode:?} run failed: {e}"))
            .1
    })
}

#[test]
fn modes_agree_on_final_register_state_all_benchmarks() {
    // Mode-equivalence (both engines): FastForward and Compressed rewrite
    // timing, never architectural state — the full flattened register
    // file at `done` matches Step's exactly.
    for bench in all() {
        let module = (bench.build)();
        let interp = Simulator::new(&module);
        let vm = CompiledSim::new(&module).unwrap();
        for job in jobs_for(&bench, 1) {
            for (engine, [step, ff, comp]) in [
                (
                    "interp",
                    final_states(|m| interp.run_with_state(&job, m, None)),
                ),
                ("vm", final_states(|m| vm.run_with_state(&job, m, None))),
            ] {
                assert_eq!(step.len(), module.regs.len());
                assert_eq!(step, ff, "{}/{engine}: FastForward state", bench.name);
                assert_eq!(step, comp, "{}/{engine}: Compressed state", bench.name);
            }
        }
    }
}

#[test]
fn slices_run_identically_on_both_engines_all_benchmarks() {
    // The predictor's slice is the module production runs before every
    // job, in Compressed mode with the slice's own probes. On it the VM
    // must match the oracle, `SliceRunner::run` must report exactly the
    // VM's features and datapath activity, and `SlicePredictor::run_all`
    // must report exactly the runner's output, entry by entry.
    for bench in all() {
        let module = (bench.build)();
        let w = (bench.workloads)(11, WorkloadSize::Quick);
        let model = train::train(&module, &w.train, &TrainerConfig::default())
            .unwrap_or_else(|e| panic!("{}: training failed: {e}", bench.name));
        for flavor in [SliceFlavor::Rtl, SliceFlavor::hls_default()] {
            let predictor =
                SlicePredictor::generate(&module, &model, SliceOptions::default(), flavor)
                    .unwrap_or_else(|e| panic!("{}: slicing failed: {e}", bench.name));
            let slice = predictor.module();
            let probes = Some(predictor.probes());
            let interp = Simulator::new(slice);
            let vm = CompiledSim::new(slice).unwrap();
            let runner = predictor.runner();
            let table = predvfs_par::with_threads(4, || predictor.run_all(&w.test[..4]))
                .unwrap_or_else(|e| panic!("{} {flavor:?}: run_all failed: {e}", bench.name));
            assert_eq!(table.runs().len(), 4);
            for (ji, job) in w.test.iter().take(4).enumerate() {
                let what = format!("{} {flavor:?} slice, job {ji}", bench.name);
                let (want_trace, want_state) = interp
                    .run_with_state(job, ExecMode::Compressed, probes)
                    .unwrap_or_else(|e| panic!("{what}: interpreter failed: {e}"));
                let (got_trace, got_state) = vm
                    .run_with_state(job, ExecMode::Compressed, probes)
                    .unwrap_or_else(|e| panic!("{what}: VM failed: {e}"));
                assert_eq!(want_trace, got_trace, "{what}: trace diverged");
                assert_eq!(want_state, got_state, "{what}: final state diverged");

                let run = runner
                    .run(job)
                    .unwrap_or_else(|e| panic!("{what}: runner failed: {e}"));
                let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&run.features),
                    bits(&got_trace.features),
                    "{what}: runner features"
                );
                assert_eq!(
                    run.dp_active, got_trace.dp_active,
                    "{what}: runner dp_active"
                );
                if flavor == SliceFlavor::Rtl {
                    assert_eq!(run.cycles, got_trace.cycles as f64, "{what}: runner cycles");
                }

                // The parallel table build must hold exactly the runner's
                // output for the same job.
                let entry = table.get(ji).expect("one entry per job");
                assert_eq!(
                    bits(&entry.features),
                    bits(&run.features),
                    "{what}: table features"
                );
                assert_eq!(
                    entry.cycles.to_bits(),
                    run.cycles.to_bits(),
                    "{what}: table cycles"
                );
                assert_eq!(entry.dp_active, run.dp_active, "{what}: table dp_active");
            }
        }
    }
}
