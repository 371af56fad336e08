//! Integration: the complete offline + online pipeline for every
//! registered benchmark, at reduced workload scale.

use predvfs::{
    train, DvfsController, DvfsModel, JobContext, PredictiveController, SliceFlavor,
    SlicePredictor, TrainerConfig,
};
use predvfs_accel::{all, WorkloadSize};
use predvfs_power::{AlphaPowerCurve, Ladder, SwitchingModel};
use predvfs_rtl::{Analysis, AsicAreaModel, ExecMode, FeatureSchema, Simulator, SliceOptions};

fn dvfs() -> DvfsModel {
    let curve = AlphaPowerCurve::default();
    DvfsModel::new(
        Ladder::asic(&curve).with_boost(&curve, 1.08),
        SwitchingModel::off_chip(),
    )
}

#[test]
fn every_benchmark_trains_slices_and_predicts() {
    for bench in all() {
        let module = (bench.build)();
        let w = (bench.workloads)(11, WorkloadSize::Quick);
        let model = train::train(&module, &w.train, &TrainerConfig::default())
            .unwrap_or_else(|e| panic!("{}: training failed: {e}", bench.name));
        assert!(
            !model.selected_nonbias().is_empty(),
            "{}: no features selected",
            bench.name
        );
        let predictor =
            SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)
                .unwrap_or_else(|e| panic!("{}: slicing failed: {e}", bench.name));

        // Slice must be smaller than the full design.
        let area = AsicAreaModel::default();
        let full = area.area(&module).total_um2();
        let sliced = area.area(predictor.module()).total_um2();
        assert!(
            sliced < full * 0.6,
            "{}: slice {sliced:.0} vs full {full:.0}",
            bench.name
        );

        // Predictions on held-out jobs must be accurate and conservative.
        let sim = Simulator::new(&module);
        let runner = predictor.runner();
        let mut under = 0;
        for job in w.test.iter().take(10) {
            let run = runner.run(job).unwrap();
            let predicted = model.predict_cycles(&run.features);
            let actual = sim.run(job, ExecMode::FastForward, None).unwrap().cycles as f64;
            let rel = (predicted - actual) / actual;
            assert!(
                rel.abs() < 0.25,
                "{}: prediction off by {:.1}%",
                bench.name,
                rel * 100.0
            );
            // djpeg's hidden Huffman drain guarantees small signed
            // residuals; only count under-predictions big enough to
            // threaten the 5 % margin.
            if rel < -0.03 {
                under += 1;
            }
            assert!(
                run.cycles < actual * 0.6,
                "{}: slice not fast enough ({} vs {actual})",
                bench.name,
                run.cycles
            );
        }
        assert!(under <= 3, "{}: {under}/10 under-predictions", bench.name);
    }
}

#[test]
fn every_benchmark_has_mineable_structure() {
    for bench in all() {
        let module = (bench.build)();
        let a = Analysis::run(&module);
        assert_eq!(a.fsms.len(), 1, "{}: one control FSM", bench.name);
        assert!(
            a.counters.len() >= 2,
            "{}: expected counters, got {}",
            bench.name,
            a.counters.len()
        );
        assert!(!a.waits.is_empty(), "{}: expected wait states", bench.name);
        let schema = FeatureSchema::from_analysis(&module, &a);
        assert!(
            schema.len() >= 10,
            "{}: schema too small ({})",
            bench.name,
            schema.len()
        );
    }
}

#[test]
fn controller_meets_deadlines_on_quick_workloads() {
    for bench in all() {
        let module = (bench.build)();
        let w = (bench.workloads)(5, WorkloadSize::Quick);
        let model = train::train(&module, &w.train, &TrainerConfig::default()).unwrap();
        let predictor =
            SlicePredictor::generate(&module, &model, SliceOptions::default(), SliceFlavor::Rtl)
                .unwrap();
        let f_hz = bench.f_nominal_mhz * 1e6;
        let dvfs = dvfs();
        let n = w.test.len().min(20);
        let slices = predictor.run_all(&w.test[..n]).unwrap();
        let mut controller = PredictiveController::new(dvfs.clone(), f_hz, &slices, &model);
        let sim = Simulator::new(&module);
        let mut misses = 0;
        for (i, job) in w.test.iter().take(n).enumerate() {
            let d = controller
                .decide(&JobContext {
                    job,
                    deadline_s: 16.7e-3,
                    index: i,
                })
                .unwrap();
            let point = dvfs.point(d.choice);
            let trace = sim.run(job, ExecMode::FastForward, None).unwrap();
            let wall =
                trace.cycles as f64 / (f_hz * point.freq_ratio) + d.slice_cycles / f_hz + 100e-6;
            if wall > 16.7e-3 {
                misses += 1;
            }
            controller.observe(trace.cycles);
        }
        assert!(
            misses <= 1,
            "{}: {misses}/{n} quick-workload misses",
            bench.name
        );
    }
}
