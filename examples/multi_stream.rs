//! Four accelerator streams sharing one service runtime: a steady SHA
//! stream, an AES stream whose workload silently shifts mid-run (served
//! by the online-adaptive controller), an overloaded MD stream shedding
//! excess arrivals, and a stencil stream that deadline-relaxes instead.
//!
//! The run is deterministic: the same scenario produces float-identical
//! results for any `predvfs_par` thread count, because parallelism only
//! touches the preparation phase.
//!
//! Run with: `cargo run -p predvfs-serve --release --example multi_stream`

use predvfs_serve::{Scenario, ServeRuntime};
use predvfs_sim::{outln, report::Table, TraceCache};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::demo();
    outln!(
        "preparing {} streams ({:?} platform)...",
        scenario.streams.len(),
        scenario.platform
    );
    let runtime = ServeRuntime::prepare(&scenario, &TraceCache::new())?;
    let result = runtime.run()?;

    let mut table = Table::new(
        &format!(
            "multi-stream service ({} events over {:.1} ms virtual time)",
            result.events,
            result.horizon_s * 1e3
        ),
        &[
            "stream",
            "ctrl",
            "submitted",
            "done",
            "miss%",
            "shed",
            "relaxed",
            "refits",
            "svc (ms)",
            "energy (uJ)",
        ],
    );
    for (spec, s) in runtime.specs().iter().zip(&result.streams) {
        let mean_service_ms = s
            .records
            .iter()
            .map(|r| (r.done_s - r.start_s) * 1e3)
            .sum::<f64>()
            / s.completed().max(1) as f64;
        table.row(&[
            s.name.clone(),
            spec.controller.name().to_owned(),
            s.submitted.to_string(),
            s.completed().to_string(),
            format!("{:.1}", s.miss_pct()),
            s.shed.to_string(),
            s.relaxed.to_string(),
            s.refits.to_string(),
            format!("{:.3}", mean_service_ms),
            format!("{:.2}", s.total_energy_pj() / 1e6),
        ]);
    }
    table.print();

    // The adaptive stream's drift story, job by job.
    if let Some(s) = result.streams.iter().find(|s| s.refits > 0) {
        let first_degraded = s.records.iter().find(|r| r.degraded).map(|r| r.job);
        outln!(
            "\nstream '{}' detected drift around job {:?} and installed {} refit(s).",
            s.name,
            first_degraded,
            s.refits
        );
    }
    Ok(())
}
