//! A 60 fps video player: decode a clip with per-frame predictive DVFS and
//! compare the energy bill against constant-frequency decoding.
//!
//! Run with: `cargo run -p predvfs-sim --release --example video_player`

use predvfs::{
    train, DvfsController, DvfsModel, JobContext, PredictiveController, SliceFlavor,
    SlicePredictor, TrainerConfig,
};
use predvfs_accel::h264;
use predvfs_power::{AlphaPowerCurve, EnergyModel, Ladder, PowerParams, SwitchingModel};
use predvfs_rtl::{AsicAreaModel, CompiledSim, ExecMode, SliceOptions};
use predvfs_sim::outln;

const DEADLINE_S: f64 = 16.7e-3; // one frame at 60 fps

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = h264::build();
    let f_hz = h264::F_NOMINAL_MHZ * 1e6;

    // Train on two reference clips at deployment resolution.
    let mut training = h264::clip(7, 40, 0.1, 0.9, 396);
    training.extend(h264::clip(8, 40, 0.2, 0.7, 396));
    let model = train::train(&module, &training, &TrainerConfig::default())?;
    let predictor =
        SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)?;

    // Power model for the decoder.
    let area = AsicAreaModel::default().area(&module);
    let mut energy = EnergyModel::new(&module, &area, &PowerParams::default(), f_hz, 1.0);
    energy.calibrate_leakage(30.0, 0.09);

    let curve = AlphaPowerCurve::default();
    let dvfs = DvfsModel::new(
        Ladder::asic(&curve).with_boost(&curve, 1.08),
        SwitchingModel::off_chip(),
    );
    // "Play" a clip; the slice runs once per frame, ahead of the decisions.
    let clip = h264::clip(99, 120, 0.2, 0.8, 396);
    let slices = predictor.run_all(&clip)?;
    let mut controller = PredictiveController::new(dvfs.clone(), f_hz, &slices, &model);
    let sim = CompiledSim::new(&module)?;
    let nominal = predvfs_power::OperatingPoint {
        volts: 1.0,
        freq_ratio: 1.0,
    };
    let mut dvfs_pj = 0.0;
    let mut baseline_pj = 0.0;
    let mut misses = 0;
    for (i, frame) in clip.iter().enumerate() {
        let decision = controller.decide(&JobContext {
            job: frame,
            deadline_s: DEADLINE_S,
            index: i,
        })?;
        let point = dvfs.point(decision.choice);
        let trace = sim.run(frame, ExecMode::FastForward, None)?;
        let frame_time = energy.time_s(trace.cycles, point) + decision.slice_cycles / f_hz;
        if frame_time > DEADLINE_S {
            misses += 1;
        }
        dvfs_pj += energy.job_pj(trace.cycles, &trace.dp_active, point, 1.0);
        baseline_pj += energy.job_pj(trace.cycles, &trace.dp_active, nominal, 1.0);
        controller.observe(trace.cycles);
        if i < 5 {
            outln!(
                "frame {i}: {:.2} ms predicted, ran at {:.3} V ({:.2} ms wall)",
                decision.predicted_cycles.unwrap_or(0.0) / f_hz * 1e3,
                point.volts,
                frame_time * 1e3
            );
        }
    }
    outln!("...");
    outln!(
        "{} frames decoded: {:.1}% of baseline energy, {misses} dropped frames",
        clip.len(),
        100.0 * dvfs_pj / baseline_pj
    );
    Ok(())
}
