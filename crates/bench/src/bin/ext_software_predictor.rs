//! §4.5 extension: running the predictor in software on the host CPU
//! instead of as a hardware slice (e.g. an ffmpeg-based H.264 predictor).

use predvfs::{train, CpuModel, SoftwarePredictor};
use predvfs_bench::{prepare_one, results_dir, standard_config};
use predvfs_opt::BoxStats;
use predvfs_sim::{Platform, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = standard_config(Platform::Asic);
    let exp = prepare_one("h264", &cfg)?;
    let sw = SoftwarePredictor::new(exp.slice_table()?, &exp.model, CpuModel::default());

    let data = train::profile(&exp.module, &exp.workloads.test)?;
    let mut errs = Vec::new();
    let mut cpu_ms = Vec::new();
    for i in 0..exp.workloads.test.len() {
        let p = sw.predict(i)?;
        errs.push(100.0 * (p.predicted_cycles - data.y[i]) / data.y[i]);
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
    t.print();
    println!(
        "paper: the software predictor achieved good accuracy for h264 \
         (details elided for space); measured above."
    );
    t.write_csv(&results_dir().join("ext_software_predictor.csv"))?;
    Ok(())
}
