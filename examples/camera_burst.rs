//! Burst photography: the JPEG engine must encode each shot before the
//! next one arrives. Sizes are uncorrelated shot to shot, which defeats
//! reactive control — exactly the scenario of §2.4.
//!
//! Run with: `cargo run -p predvfs-sim --release --example camera_burst`

use predvfs::{
    train, DvfsController, DvfsModel, JobContext, PidController, PredictiveController, SliceFlavor,
    SlicePredictor, TrainerConfig,
};
use predvfs_accel::cjpeg;
use predvfs_accel::common::{self, WorkloadSize};
use predvfs_power::{AlphaPowerCurve, EnergyModel, Ladder, PowerParams, SwitchingModel};
use predvfs_rtl::{AsicAreaModel, CompiledSim, ExecMode, JobInput, SliceOptions};
use predvfs_sim::outln;
use rand::Rng;

const SHOT_DEADLINE_S: f64 = 16.7e-3;

fn burst(seed: u64, shots: usize) -> Vec<JobInput> {
    let mut r = common::rng(seed);
    (0..shots)
        .map(|_| {
            let mcus = r.gen_range(400..4000);
            let nzc = r.gen_range(35.0..95.0);
            cjpeg::image(&mut r, mcus, nzc)
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = cjpeg::build();
    let f_hz = cjpeg::F_NOMINAL_MHZ * 1e6;
    let training = cjpeg::workloads(3, WorkloadSize::Quick).train;
    let model = train::train(&module, &training, &TrainerConfig::default())?;
    let predictor =
        SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)?;

    let area = AsicAreaModel::default().area(&module);
    let mut energy = EnergyModel::new(&module, &area, &PowerParams::default(), f_hz, 1.0);
    energy.calibrate_leakage(25.0, 0.09);
    let curve = AlphaPowerCurve::default();
    let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());

    let shots = burst(1234, 40);
    let slices = predictor.run_all(&shots)?;
    let sim = CompiledSim::new(&module)?;

    for (name, mut controller) in [
        (
            "pid",
            Box::new(PidController::tuned(dvfs.clone(), f_hz)) as Box<dyn DvfsController>,
        ),
        (
            "prediction",
            Box::new(PredictiveController::new(
                dvfs.clone(),
                f_hz,
                &slices,
                &model,
            )) as Box<dyn DvfsController>,
        ),
    ] {
        let mut pj = 0.0;
        let mut missed = 0;
        for (i, shot) in shots.iter().enumerate() {
            let d = controller.decide(&JobContext {
                job: shot,
                deadline_s: SHOT_DEADLINE_S,
                index: i,
            })?;
            let point = dvfs.point(d.choice);
            let trace = sim.run(shot, ExecMode::FastForward, None)?;
            let wall = energy.time_s(trace.cycles, point) + d.slice_cycles / f_hz;
            if wall > SHOT_DEADLINE_S {
                missed += 1;
            }
            pj += energy.job_pj(trace.cycles, &trace.dp_active, point, 1.0);
            controller.observe(trace.cycles);
        }
        outln!(
            "{name:>11}: {:.1} uJ for {} shots, {missed} missed shot deadlines",
            pj / 1e6,
            shots.len()
        );
    }
    outln!("uncorrelated shot sizes leave reactive control no history to learn from.");
    Ok(())
}
