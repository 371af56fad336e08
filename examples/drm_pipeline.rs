//! A DRM-protected video pipeline: each frame's payload must be decrypted
//! (AES) and integrity-checked (SHA) before the decoder needs it — the
//! paper's motivating scenario for giving throughput accelerators response
//! time requirements. The frame, not any single stage, has the deadline;
//! this example compares a static even budget split against splitting
//! proportionally to each stage's execution-time *prediction*.
//!
//! Run with: `cargo run -p predvfs-sim --release --example drm_pipeline`

use predvfs::{train, DvfsModel, SliceFlavor, SlicePredictor, TrainerConfig};
use predvfs_accel::{aes, sha, WorkloadSize};
use predvfs_power::{AlphaPowerCurve, EnergyModel, Ladder, PowerParams, SwitchingModel};
use predvfs_rtl::{AsicAreaModel, CompiledSim, ExecMode, JobInput, JobTrace, Module, SliceOptions};
use predvfs_sim::{outln, run_pipeline, PipelineStage, SplitPolicy};

const FRAME_DEADLINE_S: f64 = 16.7e-3;

struct Stage {
    module: Module,
    model: predvfs::ExecTimeModel,
    predictor: SlicePredictor,
    energy: EnergyModel,
}

fn prepare(
    build: fn() -> Module,
    f_mhz: f64,
    training: &[JobInput],
) -> Result<Stage, Box<dyn std::error::Error>> {
    let module = build();
    let model = train::train(&module, training, &TrainerConfig::default())?;
    let predictor =
        SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)?;
    let area = AsicAreaModel::default().area(&module);
    let mut energy = EnergyModel::new(&module, &area, &PowerParams::default(), f_mhz * 1e6, 1.0);
    energy.calibrate_leakage(20.0, 0.09);
    Ok(Stage {
        module,
        model,
        predictor,
        energy,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let a = prepare(
        aes::build,
        aes::F_NOMINAL_MHZ,
        &aes::workloads(5, WorkloadSize::Quick).train,
    )?;
    let s = prepare(
        sha::build,
        sha::F_NOMINAL_MHZ,
        &sha::workloads(5, WorkloadSize::Quick).train,
    )?;

    // 16 frames with varying payloads; the hash covers a digest region a
    // quarter the size of the encrypted payload.
    let payload_kb: Vec<u64> = vec![
        900, 950, 1020, 2400, 2300, 980, 1000, 3900, 960, 940, 1010, 990, 4300, 1000, 970, 930,
    ];
    let aes_jobs: Vec<JobInput> = payload_kb.iter().map(|&kb| aes::piece(kb * 1024)).collect();
    let sha_jobs: Vec<JobInput> = payload_kb.iter().map(|&kb| sha::piece(kb * 256)).collect();
    let trace = |m: &Module, jobs: &[JobInput]| -> Result<Vec<JobTrace>, predvfs_rtl::RtlError> {
        let sim = CompiledSim::new(m)?;
        jobs.iter()
            .map(|j| sim.run(j, ExecMode::FastForward, None))
            .collect()
    };
    let traces = [trace(&a.module, &aes_jobs)?, trace(&s.module, &sha_jobs)?];
    // Each stage's slice runs once per frame; both policies read the runs.
    let aes_slices = a.predictor.run_all(&aes_jobs)?;
    let sha_slices = s.predictor.run_all(&sha_jobs)?;

    let curve = AlphaPowerCurve::default();
    let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());
    let stages = [
        PipelineStage {
            name: "aes",
            slices: &aes_slices,
            model: &a.model,
            energy: &a.energy,
            dvfs: dvfs.clone(),
        },
        PipelineStage {
            name: "sha",
            slices: &sha_slices,
            model: &s.model,
            energy: &s.energy,
            dvfs: dvfs.clone(),
        },
    ];

    for (label, policy) in [
        ("static even split", SplitPolicy::Static),
        ("proportional to prediction", SplitPolicy::Proportional),
    ] {
        let res = run_pipeline(&stages, &traces, FRAME_DEADLINE_S, policy);
        outln!(
            "{label:>27}: {:8.1} uJ, {:.1}% frames late",
            res.total_energy_pj() / 1e6,
            res.frame_miss_pct()
        );
    }
    outln!(
        "per-stage predictions let the big decrypt jobs borrow the hash \
         stage's unused budget."
    );
    Ok(())
}
