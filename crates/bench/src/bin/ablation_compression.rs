//! Ablation: wait-state compression (§3.5). Without modifying the FSM
//! transition table, the slice is small but as *slow* as the original
//! accelerator — the inefficiency the paper removes.

use predvfs::{SliceFlavor, SlicePredictor};
use predvfs_accel::{all, WorkloadSize};
use predvfs_bench::results_dir;
use predvfs_rtl::{AsicAreaModel, CompiledSim, ExecMode, SliceOptions};
use predvfs_sim::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::var("PREDVFS_QUICK").as_deref() == Ok("1");
    let size = if quick {
        WorkloadSize::Quick
    } else {
        WorkloadSize::Full
    };
    let mut t = Table::new(
        "ablation — wait-state compression",
        &[
            "bench",
            "full_kcyc",
            "slice_kcyc",
            "norewrite_nocompress_kcyc",
            "area%",
            "norewrite_area%",
        ],
    );
    for bench in all() {
        let module = (bench.build)();
        let w = (bench.workloads)(42, size);
        let model = predvfs::train::train(&module, &w.train, &predvfs::TrainerConfig::default())?;
        let with =
            SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)?;
        let without = SlicePredictor::generate(
            &module,
            &model,
            SliceOptions {
                rewrite_waits: false,
            },
            SliceFlavor::Rtl,
        )?;
        let job = &w.test[0];
        let full = CompiledSim::new(&module)?.run(job, ExecMode::FastForward, None)?;
        let compressed = with.runner().run(job)?;
        // The un-rewritten slice, executed without runtime compression,
        // takes as long as the original accelerator.
        let uncompressed =
            CompiledSim::new(without.module())?.run(job, ExecMode::FastForward, None)?;
        let area = AsicAreaModel::default();
        let full_area = area.area(&module).total_um2();
        t.row(&[
            bench.name.into(),
            format!("{:.0}", full.cycles as f64 / 1e3),
            format!("{:.0}", compressed.cycles / 1e3),
            format!("{:.0}", uncompressed.cycles as f64 / 1e3),
            format!(
                "{:.1}",
                100.0 * area.area(with.module()).total_um2() / full_area
            ),
            format!(
                "{:.1}",
                100.0 * area.area(without.module()).total_um2() / full_area
            ),
        ]);
    }
    t.print();
    println!(
        "without the FSM rewrite the slice still waits for hardware that \
         no longer exists — same cycles as the full design (paper §3.5)."
    );
    t.write_csv(&results_dir().join("ablation_compression.csv"))?;
    Ok(())
}
