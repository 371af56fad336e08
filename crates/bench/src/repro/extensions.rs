//! Extensions beyond the paper's evaluation: the §4.5 software predictor,
//! multi-accelerator pipelines, and hybrid residual-feedback control.

use predvfs::{CpuModel, DvfsController, HybridController, JobContext, SoftwarePredictor};
use predvfs_opt::BoxStats;
use predvfs_rtl::{CompiledSim, ExecMode, JobInput, JobTrace, Module, RtlError};
use predvfs_sim::{outln, run_pipeline, PipelineStage, Scheme, SplitPolicy, Table};
use rand::Rng;

use super::{cells, run_controller, Context, Outcome};

/// §4.5: running the predictor in software on the host CPU instead of as
/// a hardware slice (e.g. an ffmpeg-based H.264 predictor).
pub(super) fn ext_software_predictor(ctx: &Context) -> Outcome {
    let exp = ctx.asic_bench("h264")?;
    let sw = SoftwarePredictor::new(exp.slice_table()?, &exp.model, CpuModel::default());

    let mut errs = Vec::new();
    let mut cpu_ms = Vec::new();
    for (i, trace) in exp.test_traces.iter().enumerate() {
        let p = sw.predict(i)?;
        let actual = trace.cycles as f64;
        errs.push(100.0 * (p.predicted_cycles - actual) / actual);
        cpu_ms.push(p.cpu_time_s * 1e3);
    }
    let b = BoxStats::of(&errs);
    let mut t = Table::new(
        "§4.5 — software predictor (h264 on CPU)",
        &["metric", "value"],
    );
    t.row(&["error median %".into(), format!("{:.2}", b.median)]);
    t.row(&["error q1..q3 %".into(), format!("{:.2}..{:.2}", b.q1, b.q3)]);
    t.row(&[
        "error range %".into(),
        format!("{:.2}..{:.2}", b.min, b.max),
    ]);
    t.row(&[
        "cpu time avg ms".into(),
        format!("{:.3}", cpu_ms.iter().sum::<f64>() / cpu_ms.len() as f64),
    ]);
    ctx.emit(&t, "ext_software_predictor.csv")?;
    outln!(
        "paper: the software predictor achieved good accuracy for h264 \
         (details elided for space); measured above."
    );
    Ok(())
}

/// Multi-accelerator frame pipelines (in the direction of the paper's
/// reference \[18\]). A DRM video frame is decrypted (AES) and
/// integrity-checked (SHA) under one shared frame deadline; splitting the
/// budget proportionally to each stage's *prediction* beats a static even
/// split.
pub(super) fn ext_pipeline(ctx: &Context) -> Outcome {
    let aes = ctx.asic_bench("aes")?;
    let sha = ctx.asic_bench("sha")?;

    // Frame payloads: mostly ~2 MB with occasional large frames.
    let mut r = predvfs_accel::common::rng(77);
    let frames = 60;
    let kbs: Vec<u64> = (0..frames)
        .map(|_| {
            if r.gen_bool(0.15) {
                r.gen_range(4_000..6_200)
            } else {
                r.gen_range(1_200..2_600)
            }
        })
        .collect();
    let aes_jobs: Vec<JobInput> = kbs
        .iter()
        .map(|&kb| predvfs_accel::aes::piece(kb * 1024))
        .collect();
    let sha_jobs: Vec<JobInput> = kbs
        .iter()
        .map(|&kb| predvfs_accel::sha::piece(kb * 256))
        .collect();

    let trace = |m: &Module, jobs: &[JobInput]| -> Result<Vec<JobTrace>, RtlError> {
        let sim = CompiledSim::new(m)?;
        jobs.iter()
            .map(|j| sim.run(j, ExecMode::FastForward, None))
            .collect()
    };
    let traces = [
        trace(&aes.module, &aes_jobs)?,
        trace(&sha.module, &sha_jobs)?,
    ];
    // One slice pass per stage, shared by both split policies.
    let aes_slices = aes.predictor.run_all(&aes_jobs)?;
    let sha_slices = sha.predictor.run_all(&sha_jobs)?;

    let stages = [
        PipelineStage {
            name: "aes",
            slices: &aes_slices,
            model: &aes.model,
            energy: &aes.energy,
            dvfs: aes.dvfs.clone(),
        },
        PipelineStage {
            name: "sha",
            slices: &sha_slices,
            model: &sha.model,
            energy: &sha.energy,
            dvfs: sha.dvfs.clone(),
        },
    ];

    let mut t = Table::new(
        "extension — pipeline budget splitting (AES -> SHA, shared 16.7 ms)",
        &["policy", "energy_uJ", "frame_miss%"],
    );
    let mut energies = Vec::new();
    for (name, policy) in [
        ("static", SplitPolicy::Static),
        ("proportional", SplitPolicy::Proportional),
    ] {
        let res = run_pipeline(&stages, &traces, 16.7e-3, policy);
        energies.push(res.total_energy_pj());
        t.row(&cells(
            name,
            &[res.total_energy_pj() / 1e6, res.frame_miss_pct()],
            &[1, 2],
        ));
    }
    ctx.emit(&t, "ext_pipeline.csv")?;
    outln!(
        "proportional split saves {:.1}% over a static even split — the \
         fast stage no longer idles at high voltage.",
        100.0 * (1.0 - energies[1] / energies[0])
    );
    Ok(())
}

/// Hybrid predictive + residual-feedback control on the one benchmark
/// whose variation the mined features cannot fully see (djpeg).
pub(super) fn ext_hybrid(ctx: &Context) -> Outcome {
    let exp = ctx.asic_bench("djpeg")?;
    let base = exp.run(Scheme::Baseline)?;
    let pred = exp.run(Scheme::Prediction)?;

    let f_hz = exp.bench.f_nominal_mhz * 1e6;
    let slices = exp.slice_table()?;
    let charged = Some(&exp.slice_energy);
    let mut hybrid = HybridController::new(exp.dvfs.clone(), f_hz, slices, &exp.model);
    let hyb = run_controller(exp, &mut hybrid, &exp.dvfs, charged)?;
    let mut adaptive = HybridController::new(exp.dvfs.clone(), f_hz, slices, &exp.model);
    adaptive.allow_downward = true;
    let mut adp = run_controller(exp, &mut adaptive, &exp.dvfs, charged)?;
    adp.scheme = "hybrid-adaptive".into();

    let mut t = Table::new(
        "extension — hybrid residual feedback (djpeg)",
        &[
            "scheme",
            "energy%",
            "miss%",
            "err_q1%",
            "err_median%",
            "err_q3%",
        ],
    );
    for res in [&pred, &hyb, &adp] {
        let b = BoxStats::of(&res.prediction_errors_pct());
        t.row(&cells(
            &res.scheme,
            &[
                res.normalized_energy_pct(&base),
                res.miss_pct(),
                b.q1,
                b.median,
                b.q3,
            ],
            &[1, 2, 2, 2, 2],
        ));
    }
    ctx.emit(&t, "ext_hybrid.csv")?;
    let _ = hybrid.decide(&JobContext {
        job: &exp.workloads.test[0],
        deadline_s: 16.7e-3,
        index: 0,
    });
    outln!(
        "the EWMA residual tracker (final ratio {:.3}) absorbs the hidden \
         Huffman-drain bias the features cannot observe.",
        hybrid.residual_ratio()
    );
    Ok(())
}
