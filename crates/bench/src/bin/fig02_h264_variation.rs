//! Figure 2: per-frame execution time of the H.264 decoder for three video
//! clips of the same resolution, decoded at 60 fps.

use predvfs_accel::h264;
use predvfs_bench::results_dir;
use predvfs_rtl::{CompiledSim, ExecMode};
use predvfs_sim::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = h264::build();
    let sim = CompiledSim::new(&module)?;
    let frames = if std::env::var("PREDVFS_QUICK").as_deref() == Ok("1") {
        40
    } else {
        300
    };
    let clips = h264::figure2_clips(42, frames);

    let mut series = Table::new(
        "Fig. 2 — h264 per-frame execution time (ms)",
        &["frame", "coastguard", "foreman", "news"],
    );
    let mut per_clip: Vec<Vec<f64>> = Vec::new();
    for (_, jobs) in &clips {
        let times: Result<Vec<f64>, _> = jobs
            .iter()
            .map(|j| {
                sim.run(j, ExecMode::FastForward, None)
                    .map(|t| t.cycles as f64 / (h264::F_NOMINAL_MHZ * 1e3))
            })
            .collect();
        per_clip.push(times?);
    }
    for f in 0..frames {
        let mut row = vec![f.to_string()];
        row.extend(per_clip.iter().map(|clip| format!("{:.3}", clip[f])));
        series.row(&row);
    }
    let mut summary = Table::new(
        "Fig. 2 — summary per clip",
        &["clip", "min_ms", "avg_ms", "max_ms", "spread"],
    );
    for ((name, _), times) in clips.iter().zip(&per_clip) {
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let avg = times.iter().sum::<f64>() / times.len() as f64;
        summary.row(&[
            (*name).into(),
            format!("{min:.2}"),
            format!("{avg:.2}"),
            format!("{max:.2}"),
            format!("{:.2}x", max / min),
        ]);
    }
    summary.print();
    println!(
        "paper: large variation between and within clips at one resolution \
         (roughly 5–12 ms); measured above."
    );
    series.write_csv(&results_dir().join("fig02_h264_variation.csv"))?;
    summary.write_csv(&results_dir().join("fig02_summary.csv"))?;
    Ok(())
}
