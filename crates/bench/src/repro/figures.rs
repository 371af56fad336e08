//! The paper's tables and figures: Table 4, Figs. 2–3 and 10–19, and the
//! §3.7 h264 case study.

use predvfs_accel::{h264, WorkloadSize};
use predvfs_opt::BoxStats;
use predvfs_rtl::{AsicAreaModel, CompiledSim, ExecMode};
use predvfs_sim::{deadline_sweep, outln, Experiment, Scheme, Table};

use super::{cells, run_schemes, versus, with_average, Context, Outcome, Rows};
use crate::paper;

/// Figure 2: per-frame execution time of the H.264 decoder for three video
/// clips of the same resolution, decoded at 60 fps.
pub(super) fn fig02_h264_variation(ctx: &Context) -> Outcome {
    let module = h264::build();
    let sim = CompiledSim::new(&module)?;
    let frames = match ctx.size() {
        WorkloadSize::Quick => 40,
        WorkloadSize::Full => 300,
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
    ctx.emit(&summary, "fig02_summary.csv")?;
    outln!(
        "paper: large variation between and within clips at one resolution \
         (roughly 5–12 ms); measured above."
    );
    ctx.write(&series, "fig02_h264_variation.csv")?;
    Ok(())
}

/// Figure 3: actual execution time vs. the PID controller's prediction for
/// H.264 decoding — the reactive lag around spikes.
pub(super) fn fig03_pid_lag(ctx: &Context) -> Outcome {
    let exp = ctx.asic_bench("h264")?;
    let pid = exp.run(Scheme::Pid)?;

    let f_khz = exp.bench.f_nominal_mhz * 1e3;
    let mut t = Table::new(
        "Fig. 3 — h264 actual vs PID-predicted execution time (ms)",
        &["job", "actual", "pid_pred"],
    );
    // Find a window containing a spike so the lag is visible.
    let window = pid
        .records
        .windows(8)
        .position(|w| {
            let base = w[0].cycles as f64;
            w.iter().any(|r| r.cycles as f64 > base * 1.25)
        })
        .unwrap_or(0);
    let end = (window + 35).min(pid.records.len());
    let mut lag_events = 0;
    for (i, r) in pid.records[window..end].iter().enumerate() {
        let actual = r.cycles as f64 / f_khz;
        let predicted = r
            .predicted_cycles
            .map(|p| format!("{:.2}", p / f_khz))
            .unwrap_or_else(|| "-".into());
        t.row(&[(window + i).to_string(), format!("{actual:.2}"), predicted]);
        if let Some(p) = r.predicted_cycles {
            if (p - r.cycles as f64).abs() / r.cycles as f64 > 0.15 {
                lag_events += 1;
            }
        }
    }
    ctx.emit(&t, "fig03_pid_lag.csv")?;
    outln!(
        "{} of {} window jobs mispredicted by >15% — the spike-chasing lag \
         the paper illustrates (one under- then one over-prediction).",
        lag_events,
        end - window
    );
    Ok(())
}

/// Table 4: ASIC implementation results — area, nominal frequency, and
/// execution-time statistics per benchmark (measured vs. paper).
pub(super) fn table4_asic_impl(ctx: &Context) -> Outcome {
    let mut t = Table::new(
        "Table 4 — ASIC implementation results (measured | paper)",
        &[
            "bench",
            "area_um2",
            "paper_area",
            "MHz",
            "max_ms",
            "avg_ms",
            "min_ms",
            "paper_max",
            "paper_avg",
            "paper_min",
        ],
    );
    for e in ctx.asic()? {
        let area = AsicAreaModel::default().area(&e.design.module).total_um2();
        let (max, avg, min) = e.exec_time_stats_ms();
        let (_, p_area, p_mhz, p_max, p_avg, p_min) = paper::TABLE4
            .iter()
            .copied()
            .find(|(n, ..)| *n == e.bench.name)
            .expect("paper row");
        assert_eq!(p_mhz, e.bench.f_nominal_mhz);
        t.row(&[
            e.bench.name.into(),
            format!("{area:.0}"),
            format!("{p_area:.0}"),
            format!("{:.0}", e.bench.f_nominal_mhz),
            format!("{max:.2}"),
            format!("{avg:.2}"),
            format!("{min:.2}"),
            format!("{p_max:.2}"),
            format!("{p_avg:.2}"),
            format!("{p_min:.2}"),
        ]);
    }
    ctx.emit(&t, "table4_asic_impl.csv")?;
    Ok(())
}

/// Figure 10: box-and-whisker statistics of slice-based execution-time
/// prediction error per benchmark (positive = over-prediction).
pub(super) fn fig10_prediction_error(ctx: &Context) -> Outcome {
    let mut t = Table::new(
        "Fig. 10 — prediction error (%), box-and-whisker",
        &["bench", "min", "q1", "median", "q3", "max", "under%"],
    );
    for e in ctx.asic()? {
        let errs = e.run(Scheme::Prediction)?.prediction_errors_pct();
        let b = BoxStats::of(&errs);
        let under = errs.iter().filter(|&&x| x < 0.0).count();
        let mut row = cells(e.bench.name, &[b.min, b.q1, b.median, b.q3, b.max], &[2; 5]);
        row.push(format!("{:.1}", 100.0 * under as f64 / errs.len() as f64));
        t.row(&row);
    }
    ctx.emit(&t, "fig10_prediction_error.csv")?;
    outln!(
        "paper: near-zero error for most benchmarks; djpeg visibly worse \
         (unmodelable variable-latency state); very few under-predictions \
         thanks to the conservative convex objective."
    );
    Ok(())
}

/// Figure 11: normalized energy and deadline misses of baseline, PID, and
/// prediction DVFS schemes across the seven ASIC accelerators.
///
/// Checks the headline shape on unrounded values, per benchmark and on
/// average: prediction saves energy over the baseline and misses no more
/// deadlines than PID.
pub(super) fn fig11_energy_misses(ctx: &Context) -> Outcome {
    let columns = ["bench", "baseline", "pid", "prediction"];
    let mut energy = Table::new("Fig. 11 — normalized energy (% of baseline)", &columns);
    let mut misses = Table::new("Fig. 11 — deadline misses (%)", &columns);
    let (rows, avg) = with_average(ctx.asic()?, |e| {
        let [base, pid, pred] =
            run_schemes(e, [Scheme::Baseline, Scheme::Pid, Scheme::Prediction])?;
        Ok([
            100.0,
            pid.normalized_energy_pct(&base),
            pred.normalized_energy_pct(&base),
            base.miss_pct(),
            pid.miss_pct(),
            pred.miss_pct(),
        ])
    })?;
    for (name, v) in &rows {
        energy.row(&cells(name, &v[..3], &[1; 3]));
        misses.row(&cells(name, &v[3..], &[1; 3]));
    }
    ctx.emit(&energy, "fig11_energy.csv")?;
    ctx.emit(&misses, "fig11_misses.csv")?;
    outln!(
        "paper: prediction saves {:.1}% (measured {:.1}%), misses {:.1}% (measured {:.2}%)",
        paper::PREDICTION_SAVINGS_PCT,
        100.0 - avg[2],
        paper::PREDICTION_MISS_PCT,
        avg[5]
    );
    outln!(
        "paper: pid misses {:.1}% (measured {:.1}%), pid energy penalty {:.1}% (measured {:.1}%)",
        paper::PID_MISS_PCT,
        avg[4],
        paper::PID_ENERGY_PENALTY_PCT,
        avg[1] - avg[2]
    );
    fig11_shape(&rows)
}

/// Fig. 11's headline shape over rows of baseline, PID and prediction
/// energies, then their misses: prediction saves energy over the
/// baseline and misses no more deadlines than PID.
fn fig11_shape(rows: &Rows<6>) -> Outcome {
    for (name, v) in rows {
        if !(v[2] < v[0] && v[5] <= v[4]) {
            return Err(format!(
                "{name}: prediction must save energy and miss no more than PID, \
                 but uses {:.3}% of baseline energy and misses {:.3}% (PID {:.3}%)",
                v[2], v[5], v[4]
            )
            .into());
        }
    }
    Ok(())
}

/// Figure 12: area, energy, and execution-time overhead of the prediction
/// slice for ASIC accelerators.
pub(super) fn fig12_slice_overhead(ctx: &Context) -> Outcome {
    let mut t = Table::new(
        "Fig. 12 — slice overheads (ASIC, %)",
        &["bench", "area%", "energy%", "time%"],
    );
    let (rows, avg) = with_average(ctx.asic()?, |e| {
        let o = e.slice_overheads()?;
        Ok([o.area_pct, o.energy_pct, o.time_pct])
    })?;
    for (name, v) in &rows {
        t.row(&cells(name, v, &[1; 3]));
    }
    ctx.emit(&t, "fig12_slice_overhead.csv")?;
    outln!(
        "paper averages: area {:.1}% (measured {:.1}%), energy {:.1}% \
         (measured {:.1}%), time {:.1}% of budget (measured {:.1}%)",
        paper::SLICE_AREA_PCT,
        avg[0],
        paper::SLICE_ENERGY_PCT,
        avg[1],
        paper::SLICE_TIME_PCT,
        avg[2]
    );
    Ok(())
}

/// Figure 13: prediction with slice/DVFS overheads removed, against the
/// oracle lower bound.
///
/// Checks the energy ordering on unrounded values, per benchmark and on
/// average.
pub(super) fn fig13_no_overhead_oracle(ctx: &Context) -> Outcome {
    let columns = ["bench", "prediction", "pred_no_ovh", "oracle"];
    let mut energy = Table::new("Fig. 13 — normalized energy (%)", &columns);
    let mut misses = Table::new("Fig. 13 — deadline misses (%)", &columns);
    let schemes = [
        Scheme::Baseline,
        Scheme::Prediction,
        Scheme::PredictionNoOverhead,
        Scheme::Oracle,
    ];
    let (rows, avg) = with_average(ctx.asic()?, |e| {
        let [base, pred, noovh, oracle] = run_schemes(e, schemes)?;
        Ok([
            pred.normalized_energy_pct(&base),
            noovh.normalized_energy_pct(&base),
            oracle.normalized_energy_pct(&base),
            pred.miss_pct(),
            noovh.miss_pct(),
            oracle.miss_pct(),
        ])
    })?;
    for (name, v) in &rows {
        energy.row(&cells(name, &v[..3], &[1; 3]));
        misses.row(&cells(name, &v[3..], &[2; 3]));
    }
    ctx.emit(&energy, "fig13_energy.csv")?;
    ctx.emit(&misses, "fig13_misses.csv")?;
    outln!(
        "paper: removing overheads lifts savings to {:.1}% (measured {:.1}%), \
         oracle at {:.1}% (measured {:.1}%); both miss-free — residual \
         prediction misses are budget-, not accuracy-, driven.",
        paper::NO_OVERHEAD_SAVINGS_PCT,
        100.0 - avg[1],
        paper::ORACLE_SAVINGS_PCT,
        100.0 - avg[2]
    );
    fig13_shape(&rows)
}

/// Fig. 13's energy ordering over rows of prediction, no-overhead and
/// oracle energies: oracle ≤ no-overhead ≤ prediction, with the slack the
/// `scheme_ordering` suite allows (2% for the oracle, 0.1% for
/// no-overhead).
fn fig13_shape(rows: &Rows<6>) -> Outcome {
    for (name, v) in rows {
        if !(v[2] <= 1.02 * v[1] && v[1] <= 1.001 * v[0]) {
            return Err(format!(
                "{name}: energy must order oracle <= no-overhead <= prediction, \
                 but reads {:.3}%, {:.3}%, {:.3}% of baseline",
                v[2], v[1], v[0]
            )
            .into());
        }
    }
    Ok(())
}

/// Figure 14: eliminating residual deadline misses with a 1.08 V boost
/// level.
pub(super) fn fig14_boost(ctx: &Context) -> Outcome {
    let mut t = Table::new(
        "Fig. 14 — prediction vs prediction+boost",
        &["bench", "energy%", "boost_energy%", "miss%", "boost_miss%"],
    );
    let avg = versus(
        &mut t,
        ctx.asic()?,
        Scheme::Prediction,
        Scheme::PredictionBoost,
    )?;
    ctx.emit(&t, "fig14_boost.csv")?;
    outln!(
        "paper: boost eliminates all misses while keeping {:.1}% savings \
         (measured: misses {:.2}% -> {:.2}%, savings {:.1}%)",
        paper::BOOST_SAVINGS_PCT,
        avg[2],
        avg[3],
        100.0 - avg[1]
    );
    Ok(())
}

/// Figure 15: sensitivity to the deadline — normalized energy and misses
/// when the per-job deadline varies from 0.6× to 1.6× of 16.7 ms,
/// averaged across all benchmarks.
pub(super) fn fig15_deadline_sweep(ctx: &Context) -> Outcome {
    let schemes = [Scheme::Baseline, Scheme::Pid, Scheme::Prediction];
    let factors = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6];
    let points = deadline_sweep(ctx.asic()?, &schemes, &factors)?;

    let columns = ["factor", "baseline", "pid", "prediction"];
    let mut energy = Table::new(
        "Fig. 15 — normalized energy (%) vs deadline factor",
        &columns,
    );
    let mut misses = Table::new("Fig. 15 — deadline misses (%) vs deadline factor", &columns);
    for p in &points {
        let factor = format!("{:.1}", p.deadline_factor);
        let (en, mi): (Vec<f64>, Vec<f64>) = p.by_scheme.iter().map(|&(_, e, m)| (e, m)).unzip();
        energy.row(&cells(&factor, &en, &[1; 3]));
        misses.row(&cells(&factor, &mi, &[2; 3]));
    }
    ctx.emit(&energy, "fig15_energy.csv")?;
    ctx.emit(&misses, "fig15_misses.csv")?;
    outln!(
        "paper: below 1.0x even the baseline misses (some jobs cannot fit); \
         with longer deadlines prediction keeps lowering energy while \
         staying miss-free, PID keeps missing."
    );
    Ok(())
}

/// Figure 16: normalized energy and deadline misses for FPGA-based
/// accelerators (Kintex-7 ladder, 7 levels).
pub(super) fn fig16_fpga(ctx: &Context) -> Outcome {
    let mut t = Table::new(
        "Fig. 16 — FPGA: normalized energy and misses",
        &[
            "bench",
            "pid_energy%",
            "pred_energy%",
            "pid_miss%",
            "pred_miss%",
        ],
    );
    let avg = versus(&mut t, ctx.fpga()?, Scheme::Pid, Scheme::Prediction)?;
    ctx.emit(&t, "fig16_fpga.csv")?;
    outln!(
        "paper: FPGA prediction saves {:.1}% with 0.4% misses \
         (measured {:.1}% savings, {:.2}% misses) — comparable to ASIC.",
        paper::FPGA_SAVINGS_PCT,
        100.0 - avg[1],
        avg[3]
    );
    Ok(())
}

/// Figure 17: slice resource/energy/time overheads for FPGA accelerators.
/// The resource column is the mean of LUT/DSP/BRAM shares, which makes
/// control-only slices of DSP-heavy designs (stencil) look expensive — the
/// artifact the paper calls out.
pub(super) fn fig17_fpga_overhead(ctx: &Context) -> Outcome {
    let mut t = Table::new(
        "Fig. 17 — slice overheads (FPGA, %)",
        &[
            "bench",
            "resources%",
            "energy%",
            "time%",
            "luts",
            "dsps",
            "slice_luts",
            "slice_dsps",
        ],
    );
    let experiments = ctx.fpga()?;
    let (rows, avg) = with_average(experiments, |e| {
        let o = e.slice_overheads()?;
        Ok([o.resource_pct, o.energy_pct, o.time_pct])
    })?;
    for (i, (name, v)) in rows.iter().enumerate() {
        let mut row = cells(name, v, &[1; 3]);
        // The average row comes after the last experiment and has no
        // resource counts.
        row.extend(match experiments.get(i) {
            Some(e) => [&e.fpga_full, &e.fpga_slice]
                .iter()
                .flat_map(|r| [r.luts.to_string(), r.dsps.to_string()])
                .collect(),
            None => vec!["-".to_owned(); 4],
        });
        t.row(&row);
    }
    ctx.emit(&t, "fig17_fpga_overhead.csv")?;
    outln!(
        "paper: average slice resources {:.1}% (measured {:.1}%); stencil's \
         share is inflated because its compute lives in DSPs while the \
         slice is LUT-only.",
        paper::FPGA_SLICE_RESOURCE_PCT,
        avg[0]
    );
    Ok(())
}

/// md and stencil with RTL-level then HLS-level slices, labelled
/// `md-rtl`, `md-hls`, … (Figs. 18–19).
fn slice_flavors(ctx: &Context) -> Result<Vec<(String, &Experiment)>, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    for hls in ctx.hls()? {
        let name = hls.bench.name;
        out.push((format!("{name}-rtl"), ctx.asic_bench(name)?));
        out.push((format!("{name}-hls"), hls));
    }
    Ok(out)
}

/// Figure 18: RTL-level vs HLS-level slicing for the `md` and `stencil`
/// accelerators — prediction error stays equal, but the faster HLS slice
/// removes the budget-driven deadline misses.
pub(super) fn fig18_hls_slicing(ctx: &Context) -> Outcome {
    let mut t = Table::new(
        "Fig. 18 — RTL vs HLS slicing",
        &["config", "err_q1%", "err_median%", "err_q3%", "miss%"],
    );
    for (label, exp) in slice_flavors(ctx)? {
        let pred = exp.run(Scheme::Prediction)?;
        let b = BoxStats::of(&pred.prediction_errors_pct());
        t.row(&cells(
            &label,
            &[b.q1, b.median, b.q3, pred.miss_pct()],
            &[2; 4],
        ));
    }
    ctx.emit(&t, "fig18_hls_slicing.csv")?;
    outln!(
        "paper: both slices predict equally well, but the HLS slice's \
         shorter runtime leaves enough budget to remove the md/stencil \
         misses entirely."
    );
    Ok(())
}

/// Figure 19: slice area/energy/time overheads when slicing at RTL vs HLS
/// level (md and stencil).
pub(super) fn fig19_hls_overhead(ctx: &Context) -> Outcome {
    let mut t = Table::new(
        "Fig. 19 — slice overheads, RTL vs HLS (%)",
        &["config", "area%", "energy%", "time%"],
    );
    for (label, exp) in slice_flavors(ctx)? {
        let o = exp.slice_overheads()?;
        t.row(&cells(
            &label,
            &[o.area_pct, o.energy_pct, o.time_pct],
            &[1; 3],
        ));
    }
    ctx.emit(&t, "fig19_hls_overhead.csv")?;
    outln!("paper: the HLS slice runs several times faster at similar area.");
    Ok(())
}

/// §3.7 case study: the H.264 decoder end to end — detected vs selected
/// features, which features the framework picked, worst-case prediction
/// error, and the slice's cost relative to the full decoder.
pub(super) fn case_study_h264(ctx: &Context) -> Outcome {
    let exp = ctx.asic_bench("h264")?;

    let selected = exp.model.selected_nonbias().len();
    outln!(
        "features: {} detected -> {} selected by Lasso (paper: {} -> {})",
        exp.raw_feature_count,
        selected,
        paper::H264_FEATURES.0,
        paper::H264_FEATURES.1
    );

    let mut t = Table::new("selected features and coefficients", &["feature", "coeff"]);
    for (name, c) in exp.model.support_summary() {
        t.row(&[name, format!("{c:.3}")]);
    }
    ctx.emit(&t, "case_study_h264.csv")?;

    let errs = exp.run(Scheme::Prediction)?.prediction_errors_pct();
    let worst = errs.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
    outln!("worst-case prediction error: {worst:.2}% (paper: ~3%)");

    let area_model = AsicAreaModel::default();
    let full = area_model.area(&exp.design.module);
    let slice = area_model.area(exp.predictor.module());
    outln!(
        "slice area: {:.0} um2 = {:.1}% of decoder (paper: 37,713 um2 = {:.1}%)",
        slice.total_um2(),
        100.0 * slice.total_um2() / full.total_um2(),
        paper::H264_SLICE_AREA_PCT
    );
    let o = exp.slice_overheads()?;
    outln!(
        "slice energy: {:.1}% of job energy (paper: {:.1}%); slice time: \
         {:.1}% of deadline",
        o.energy_pct,
        paper::H264_SLICE_ENERGY_PCT,
        o.time_pct
    );
    let report = exp.predictor.report();
    outln!(
        "slice kept: {} registers, {} serial blocks; dropped: {} registers, \
         {} datapath blocks; {} wait states removed from the FSM",
        report.kept_regs.len(),
        report.kept_datapaths.len(),
        report.dropped_regs.len(),
        report.dropped_datapaths.len(),
        report.removed_wait_states,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_shape_names_the_row_that_breaks_it() {
        let holds = [("sha", [100.0, 62.0, 59.0, 0.0, 5.0, 1.1])];
        assert!(fig11_shape(&holds.to_vec()).is_ok());
        let ties = [("md", [100.0, 62.0, 59.0, 0.0, 0.0, 0.0])];
        assert!(fig11_shape(&ties.to_vec()).is_ok());
        for v in [
            [100.0, 62.0, 100.0, 0.0, 5.0, 1.1],
            [100.0, 62.0, 59.0, 0.0, 1.0, 1.1],
        ] {
            let err = fig11_shape(&vec![("aes", v)]).unwrap_err().to_string();
            assert!(err.starts_with("aes: prediction must"), "{err}");
        }
    }

    #[test]
    fn fig13_shape_allows_the_scheme_ordering_slack() {
        // sha's prediction and no-overhead energies both round to 57.1.
        let sha = [("sha", [57.12, 57.15, 57.0, 0.0, 0.0, 0.0])];
        assert!(fig13_shape(&sha.to_vec()).is_ok());
        for v in [
            [57.12, 57.2, 57.0, 0.0, 0.0, 0.0],
            [57.12, 57.15, 58.4, 0.0, 0.0, 0.0],
        ] {
            let err = fig13_shape(&vec![("sha", v)]).unwrap_err().to_string();
            assert!(err.contains("57.150") || err.contains("57.200"), "{err}");
        }
    }
}
