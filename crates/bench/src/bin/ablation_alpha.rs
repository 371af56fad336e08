//! Ablation: the under-prediction penalty α makes the model conservative.
//! djpeg is the interesting case — its hidden Huffman drain guarantees
//! residual error, and α decides on which side of the deadline it lands.

use predvfs::train::{fit, profile, TrainerConfig};
use predvfs::{DvfsModel, PredictiveController, SliceFlavor, SlicePredictor};
use predvfs_accel::{djpeg, WorkloadSize};
use predvfs_bench::results_dir;
use predvfs_power::{AlphaPowerCurve, EnergyModel, Ladder, PowerParams, SwitchingModel};
use predvfs_rtl::{AsicAreaModel, CompiledSim, ExecMode, SliceOptions};
use predvfs_sim::{run_scheme, RunConfig, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::var("PREDVFS_QUICK").as_deref() == Ok("1");
    let size = if quick {
        WorkloadSize::Quick
    } else {
        WorkloadSize::Full
    };
    let module = djpeg::build();
    let w = djpeg::workloads(42, size);
    let train_data = profile(&module, &w.train)?;
    let f_hz = djpeg::F_NOMINAL_MHZ * 1e6;

    let sim = CompiledSim::new(&module)?;
    let traces: Result<Vec<_>, _> = w
        .test
        .iter()
        .map(|j| sim.run(j, ExecMode::FastForward, None))
        .collect();
    let traces = traces?;
    let area = AsicAreaModel::default().area(&module);
    let mut energy = EnergyModel::new(&module, &area, &PowerParams::default(), f_hz, 1.0);
    energy.calibrate_leakage(
        energy.dynamic_pj_nominal(traces[0].cycles, &traces[0].dp_active) / traces[0].cycles as f64,
        0.09,
    );
    let curve = AlphaPowerCurve::default();
    let dvfs = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());
    let run_cfg = RunConfig {
        deadline_s: 16.7e-3,
        switching: SwitchingModel::off_chip(),
        leak_voltage_exp: 1.0,
    };

    let mut t = Table::new(
        "ablation — under-prediction penalty alpha (djpeg)",
        &["alpha", "under%", "miss%", "energy_uJ"],
    );
    for alpha in [1.0, 2.0, 4.0, 8.0, 16.0, 64.0] {
        let cfg = TrainerConfig {
            alpha,
            ..TrainerConfig::default()
        };
        let model = fit(&train_data, &cfg)?;
        let slices =
            SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)?
                .run_all(&w.test)?;
        let mut ctrl = PredictiveController::new(dvfs.clone(), f_hz, &slices, &model);
        let res = run_scheme(&mut ctrl, &w.test, &traces, &energy, None, &dvfs, &run_cfg)?;
        let errs = res.prediction_errors_pct();
        let under = errs.iter().filter(|&&e| e < 0.0).count();
        t.row(&[
            format!("{alpha}"),
            format!("{:.1}", 100.0 * under as f64 / errs.len() as f64),
            format!("{:.2}", res.miss_pct()),
            format!("{:.2}", res.total_energy_pj() / 1e6),
        ]);
    }
    t.print();
    println!(
        "alpha > 1 pushes residual error to the over-prediction side: fewer \
         misses for slightly more energy — the paper's design goal 3."
    );
    t.write_csv(&results_dir().join("ablation_alpha.csv"))?;
    Ok(())
}
