//! Quickstart: generate an execution-time predictor for an accelerator and
//! use it to pick a DVFS level for one job.
//!
//! Run with: `cargo run -p predvfs-sim --release --example quickstart`

use predvfs::{
    train, DvfsController, DvfsModel, JobContext, LevelChoice, PredictiveController, SliceFlavor,
    SlicePredictor, TrainerConfig,
};
use predvfs_accel::{sha, WorkloadSize};
use predvfs_power::{AlphaPowerCurve, Ladder, SwitchingModel};
use predvfs_rtl::SliceOptions;
use predvfs_sim::outln;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the accelerator (a SHA engine) and a training workload.
    let module = sha::build();
    let jobs = sha::workloads(42, WorkloadSize::Quick);
    outln!(
        "accelerator: {} ({} registers)",
        module.name,
        module.regs.len()
    );

    // 2. Offline flow: mine features, profile, fit the sparse model.
    let model = train::train(&module, &jobs.train, &TrainerConfig::default())?;
    outln!("selected features:");
    for (name, coeff) in model.support_summary() {
        outln!("  {name:<24} {coeff:>12.3}");
    }

    // 3. Generate the hardware slice that computes those features.
    let predictor =
        SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)?;
    outln!(
        "slice: kept {} registers, dropped {} datapath blocks, removed {} wait states",
        predictor.report().kept_regs.len(),
        predictor.report().dropped_datapaths.len(),
        predictor.report().removed_wait_states
    );

    // 4. Online: for an incoming job, run the slice (once per job, into a
    // table the controllers read by job index), predict, set a level.
    let curve = AlphaPowerCurve::default();
    let dvfs = DvfsModel::new(
        Ladder::asic(&curve).with_boost(&curve, 1.08),
        SwitchingModel::off_chip(),
    );
    let f_hz = sha::F_NOMINAL_MHZ * 1e6;
    let job = &jobs.test[0];
    let slices = predictor.run_all(std::slice::from_ref(job))?;
    let mut controller = PredictiveController::new(dvfs.clone(), f_hz, &slices, &model);
    let decision = controller.decide(&JobContext {
        job,
        deadline_s: 16.7e-3,
        index: 0,
    })?;
    let predicted_ms = decision.predicted_cycles.unwrap_or(0.0) / f_hz * 1e3;
    match decision.choice {
        LevelChoice::Regular(i) => {
            let p = dvfs.ladder.level(i);
            outln!(
                "job of {} chunks: predicted {predicted_ms:.2} ms -> level {i} \
                 ({:.3} V, {:.0}% of nominal frequency)",
                job.len(),
                p.volts,
                p.freq_ratio * 100.0
            );
        }
        LevelChoice::Boost => outln!("job needs the boost level"),
    }
    Ok(())
}
