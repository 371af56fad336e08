//! Extension: hybrid predictive + residual-feedback control on the one
//! benchmark whose variation the mined features cannot fully see (djpeg).

use predvfs::{DvfsController, HybridController, JobContext};
use predvfs_bench::{prepare_one, results_dir, standard_config};
use predvfs_opt::BoxStats;
use predvfs_power::SwitchingModel;
use predvfs_sim::{run_scheme, Platform, RunConfig, Scheme, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = standard_config(Platform::Asic);
    let exp = prepare_one("djpeg", &cfg)?;
    let base = exp.run(Scheme::Baseline)?;
    let pred = exp.run(Scheme::Prediction)?;

    let f_hz = exp.bench.f_nominal_mhz * 1e6;
    let slices = exp.slice_table()?;
    let mut hybrid = HybridController::new(exp.dvfs.clone(), f_hz, slices, &exp.model);
    let run_cfg = RunConfig {
        deadline_s: exp.config().deadline_s,
        switching: SwitchingModel::off_chip(),
        leak_voltage_exp: 1.0,
    };
    let hyb = run_scheme(
        &mut hybrid,
        &exp.workloads.test,
        &exp.test_traces,
        &exp.energy,
        Some(&exp.slice_energy),
        &exp.dvfs,
        &run_cfg,
    )?;
    let mut adaptive = HybridController::new(exp.dvfs.clone(), f_hz, slices, &exp.model);
    adaptive.allow_downward = true;
    let mut adp = run_scheme(
        &mut adaptive,
        &exp.workloads.test,
        &exp.test_traces,
        &exp.energy,
        Some(&exp.slice_energy),
        &exp.dvfs,
        &run_cfg,
    )?;
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
        let errs = res.prediction_errors_pct();
        let b = BoxStats::of(&errs);
        t.row(&[
            res.scheme.clone(),
            format!("{:.1}", res.normalized_energy_pct(&base)),
            format!("{:.2}", res.miss_pct()),
            format!("{:.2}", b.q1),
            format!("{:.2}", b.median),
            format!("{:.2}", b.q3),
        ]);
    }
    t.print();
    let _ = hybrid.decide(&JobContext {
        job: &exp.workloads.test[0],
        deadline_s: 16.7e-3,
        index: 0,
    });
    println!(
        "the EWMA residual tracker (final ratio {:.3}) absorbs the hidden \
         Huffman-drain bias the features cannot observe.",
        hybrid.residual_ratio()
    );
    t.write_csv(&results_dir().join("ext_hybrid.csv"))?;
    Ok(())
}
